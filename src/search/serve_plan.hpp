#pragma once
// Latency/throughput Pareto search over serving replica shapes
// (`tfpe serve-plan`, the [serving] config section).
//
// Enumerates the core::ServingSpec grid — (tp, pp, batch) at a KV
// residency cap — and evaluates each point with the phase-generic
// estimator (core/inference_estimate.hpp). Per (tp, pp) the prompt-length
// prefill signature is compiled once (a search::SignatureCache hit at every
// later batch point) and the estimate's shape half built once; each batch
// point runs only the point half (admission and the decode step).
// The result is the full evaluated grid plus the Pareto front over
// (request latency, tok/s/GPU): a point is on the front iff no other
// feasible point is at least as fast AND at least as efficient. Every
// feasible point respects the KV budget by construction (the estimator
// clips the resident batch), which the serve-plan CLI re-asserts before
// reporting.

#include <cstddef>
#include <vector>

#include "core/evaluator.hpp"
#include "core/inference_estimate.hpp"
#include "core/workload.hpp"
#include "hw/system.hpp"
#include "model/transformer.hpp"

namespace tfpe::search {

struct ServePlanOptions {
  core::ServingSpec spec;
  core::EvalOptions eval;
};

struct ServePlanStats {
  std::size_t evaluated = 0;   ///< Grid points estimated.
  std::size_t feasible = 0;
  std::size_t signature_compiles = 0;  ///< Prefill lowerings actually run.
  std::size_t signature_reuses = 0;    ///< Batch-axis cache hits.
};

struct ServePlanResult {
  /// Every grid point in enumeration order (infeasible ones keep their
  /// reason string).
  std::vector<core::InferenceEstimate> points;
  /// Indices into `points` of the Pareto front, sorted by ascending
  /// request latency (and therefore ascending tok/s/GPU).
  std::vector<std::size_t> front;
  ServePlanStats stats;
};

ServePlanResult run_serve_plan(const model::TransformerConfig& mdl,
                               const hw::SystemConfig& sys,
                               const ServePlanOptions& opts);

/// The front-selection rule, exposed for tests: indices of the maximal
/// points of `points` under (lower request_latency, higher
/// tokens_per_sec_per_gpu), feasible points only.
std::vector<std::size_t> pareto_front_serving(
    const std::vector<core::InferenceEstimate>& points);

}  // namespace tfpe::search
