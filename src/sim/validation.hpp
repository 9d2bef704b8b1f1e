#pragma once
// Model-vs-simulation validation (substitute for the paper's §IV "Empirical
// Validation" on Perlmutter and Fig. A1 NCCL tests).
//
// The analytic evaluator's closed-form collective and pipeline expressions
// are checked against an independent discrete-event execution of the same
// communication schedule (ring_sim) and pipeline schedule (pipeline_sim).
// The figure of merit matches the paper's: percentage error in iteration
// time and consistency of the performance ordering across configurations.

#include <string>

#include "core/cost_signature.hpp"
#include "core/evaluator.hpp"
#include "sim/pipeline_sim.hpp"

namespace tfpe::sim {

struct ValidationPoint {
  std::string label;
  double analytic_seconds = 0;
  double simulated_seconds = 0;

  double pct_error() const {
    if (simulated_seconds == 0) return 0;
    return 100.0 * (analytic_seconds - simulated_seconds) / simulated_seconds;
  }
  double abs_pct_error() const {
    const double e = pct_error();
    return e < 0 ? -e : e;
  }
};

/// Compare the analytic collective-time model against the ring simulator
/// for one collective of `bytes` over `g` GPUs placed `nvs` per node.
ValidationPoint validate_collective(const hw::NetworkSpec& net,
                                    ops::Collective coll, Bytes bytes,
                                    std::int64_t g, std::int64_t nvs,
                                    std::string label);

/// Compare the analytic iteration time of a configuration against a
/// discrete-event execution (ring collectives + 1F1B pipeline schedule).
/// The configuration must be feasible.
ValidationPoint validate_iteration(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const parallel::ParallelConfig& cfg,
                                   std::int64_t global_batch,
                                   std::string label);

/// Derive the discrete-event pipeline simulator's inputs from a compiled
/// cost signature: per-microbatch stage times from the batched kernel
/// (so they match the analytic evaluator bitwise) and the analytic
/// point-to-point boundary transfer for one handoff message. Lets sweeps
/// replay a candidate through simulate_pipeline without rebuilding its op
/// list. `cfg` must carry the placement the signature should be timed at.
PipelineParams pipeline_params_from_signature(
    const hw::SystemConfig& sys, const parallel::ParallelConfig& cfg,
    const core::CostSignature& sig, const core::EvalOptions& opts = {});

}  // namespace tfpe::sim
