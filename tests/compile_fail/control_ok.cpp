// Positive control for the negative-compile harness: dimensionally sound
// unit arithmetic, the scan options a sweep does take, and an op named by a
// literal, must be ACCEPTED by the same compiler invocation.
#include "ops/op_factory.hpp"
#include "search/sweep.hpp"
#include "util/units.hpp"

int main() {
  using namespace tfpe::util;
  const Seconds t = Bytes(1e9) / BytesPerSec(1e12);
  const Seconds u = Flops(1e12) / FlopsPerSec(1e15);
  const Bytes moved = BytesPerSec(1e12) * (t + u);
  const double ratio = moved / Bytes(2e9);  // dimensionless -> double
  tfpe::search::SweepOptions o;
  o.search.eval.tp_overlap = 0.5;
  const tfpe::ops::Op op = tfpe::ops::matmul("qkv_proj", 4, 6, 5);
  return ratio > 0.0 && o.search.eval.tp_overlap > 0.0 && !op.name.empty()
             ? 0
             : 1;
}
