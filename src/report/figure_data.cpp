#include "report/figure_data.hpp"

namespace tfpe::report {

std::vector<std::int64_t> pow2_range(std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  for (std::int64_t v = lo; v <= hi; v *= 2) out.push_back(v);
  return out;
}

core::EvalResult optimal_at_scale(const model::TransformerConfig& mdl,
                                  hw::SystemConfig sys,
                                  parallel::TpStrategy strategy,
                                  std::int64_t global_batch, std::int64_t n) {
  sys.n_gpus = n;
  search::SearchOptions opts;
  opts.strategy = strategy;
  opts.global_batch = global_batch;
  return search::find_optimal(mdl, sys, opts).best;
}

std::vector<LabeledResult> scaling_sweep(const model::TransformerConfig& mdl,
                                         const hw::SystemConfig& sys,
                                         parallel::TpStrategy strategy,
                                         std::int64_t global_batch,
                                         const std::vector<std::int64_t>& scales) {
  std::vector<LabeledResult> out;
  out.reserve(scales.size());
  for (std::int64_t n : scales) {
    out.push_back({std::to_string(n) + " GPUs",
                   optimal_at_scale(mdl, sys, strategy, global_batch, n)});
  }
  return out;
}

}  // namespace tfpe::report
