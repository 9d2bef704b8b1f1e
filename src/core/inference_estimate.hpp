#pragma once
// Serving-phase estimator (core/workload.hpp): TTFT, per-token latency and
// tok/s/GPU for one replica shape under a continuous-batching scheduler —
// ROADMAP item 1's "millions of users, heavy traffic" scenario, validated
// in shape against the TensorRT-LLM throughput tables in SNIPPETS.md.
//
// Model, per (tp, pp, batch, kv_cap_fraction) point:
//   * One replica = tp x pp GPUs (nd = 1; a cluster runs n_gpus/(tp*pp)
//     independent replicas, so per-GPU throughput is the figure of merit).
//   * KV budget: kv_cap_fraction x HBM minus weights and the transient
//     working set; each resident request reserves its worst-case context
//     (prompt_len + output_len) of cache. The admitted batch R is the
//     requested batch clipped to the budget — every reported point
//     respects KV residency by construction.
//   * Prefill: one prompt microbatch through the pp forward-only stages
//     (pipeline::prefill_latency) = TTFT.
//   * Decode: R requests split into pp groups rotating around the stages
//     (pipeline::decode_round_time); each round every resident request
//     advances one token. Continuous batching: R/output_len requests
//     complete per round, and their replacement prompts steal one prefill
//     stage-pass of time from every stage, so
//       TPOT = decode_round + (R / output_len) x prefill_stage_time.
//   * Throughput: R tokens per TPOT; tok/s/GPU divides by tp*pp. The
//     decode round is bounded below by the weights + KV HBM floor
//     (core::decode_round_floor).
//
// An estimate is a SHAPE half (ServingShape: prefill timing, TTFT, KV
// budget; once per (tp, pp)) and a POINT half (admit R, time the decode
// step; once per batch). Both time a stage through the engine's own SoA
// kernel, so serving has no timing code of its own.

#include <cstdint>
#include <string>
#include <vector>

#include "comm/collective_algorithm.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/workload.hpp"
#include "hw/system.hpp"
#include "memory/memory_model.hpp"
#include "model/transformer.hpp"

namespace tfpe::core {

/// One serving replica shape + scheduler limits (a point of the
/// ServingSpec grid).
struct ServingConfig {
  std::int64_t tp = 1;
  std::int64_t pp = 1;
  std::int64_t batch = 1;  ///< Requested resident requests per replica.
  double kv_cap_fraction = 0.9;
};

struct InferenceEstimate {
  bool feasible = false;
  std::string reason;  ///< Why not, when !feasible.
  ServingConfig cfg;

  std::int64_t admitted_batch = 0;  ///< R: requests the KV budget admits.
  double ttft = 0;             ///< Time to first token (one prompt) [s].
  double tpot = 0;             ///< Per-token latency in steady state [s].
  double request_latency = 0;  ///< ttft + output_len x tpot [s].
  double tokens_per_sec = 0;   ///< Replica output throughput.
  double tokens_per_sec_per_gpu = 0;
  double prefill_fraction = 0;  ///< Share of a round spent on new prompts.

  memory::MemoryBreakdown mem;  ///< Busiest GPU, kv_cache = R reservations.
  Bytes kv_bytes_per_request;   ///< Worst-case (ISL+OSL) reservation.
  double decode_floor = 0;  ///< HBM floor on the round [s]; tpot >= this.
};

/// The serving-shape validity screen: the training divisibility contract
/// (via ParallelConfig::invalid_reason on the prompt-length model) plus the
/// serve-specific constraints (dense model, positive ISL/OSL, sane KV cap).
/// It reads tp, pp and kv_cap_fraction, never the batch (the point half
/// checks that). nullopt = the shape can be estimated.
std::optional<std::string> serve_invalid_reason(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const Workload& w, const ServingConfig& sc);

/// The ParallelConfig a serving replica evaluates under: 1D TP of sc.tp,
/// sc.pp stages, nd = 1, one prompt microbatch, NVS placement packed
/// innermost-group-first (ParallelConfig::pack_placement).
parallel::ParallelConfig serving_parallel_config(const hw::SystemConfig& sys,
                                                 const ServingConfig& sc);

/// The shape half of an estimate: what (tp, pp, kv_cap_fraction) fix for
/// every batch point, plus the kernel state its points reuse. It keeps
/// references to `mdl` and `sys`, which must outlive it, and copies of the
/// workload and options, so its points and stage timings price against
/// the values it was built from. The pricer references `fabric`, so a
/// shape is not copied or moved, and its points run on one thread.
struct ServingShape {
  /// From the TRAINING-compiled prefill signature (seq_len = prompt_len,
  /// serving_parallel_config, global batch 1) of a shape that passes
  /// serve_invalid_reason.
  ServingShape(const model::TransformerConfig& mdl,
               const hw::SystemConfig& sys, const Workload& w,
               const ServingConfig& shape_config,
               const CostSignature& prefill_training_sig,
               const EvalOptions& opts = {});
  ServingShape(const ServingShape&) = delete;
  ServingShape& operator=(const ServingShape&) = delete;

  /// The point half: `batch` resident requests on this shape — admission
  /// under the KV budget, the decode step timed by stage_time, TPOT,
  /// throughput and residency. run_serve_plan calls it per batch point.
  InferenceEstimate estimate(std::int64_t batch);

  /// One microbatch (prompt or decode group) through one stage of a phase
  /// signature's block: bind_block + finish_bind and one
  /// time_placements_batch call at cfg's packed placement, t_fwd_stage.
  Seconds stage_time(const CostSignature& sig);

  const model::TransformerConfig& mdl;
  const hw::SystemConfig& sys;
  const Workload w;
  const EvalOptions opts;
  const ServingConfig sc;              ///< The shape (its batch is unused).
  const parallel::ParallelConfig cfg;  ///< serving_parallel_config(sys, sc).
  const hw::Topology fabric;           ///< sys.resolved_fabric().

  Seconds prefill_stage;  ///< One prompt through one stage.
  double ttft = 0;
  Bytes kv_bytes_per_request;
  Bytes kv_budget;  ///< Cap x HBM - weights - prefill working set.
  memory::MemoryBreakdown prefill_mem;

 private:
  comm::FabricPricer pricer_;  ///< Bound to `fabric`.
  BatchScratch scratch_;
  std::vector<PlacementTiming> timing_;
};

/// Full estimate for one grid point: the validity screen, the shape half
/// on a self-compiled prefill signature, then the point half.
InferenceEstimate estimate_serving(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const Workload& w, const ServingConfig& sc,
                                   const EvalOptions& opts = {});

/// Same, with the training-compiled prefill signature supplied by the
/// caller (see ServingShape). Bitwise the self-compiling overload. Both
/// build a whole ServingShape per call (a prefill kernel call, a pricer
/// and a scratch), so a caller with many batch points per shape builds
/// one ServingShape and calls estimate() per point, as run_serve_plan
/// does.
InferenceEstimate estimate_serving(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const Workload& w, const ServingConfig& sc,
                                   const CostSignature& prefill_training_sig,
                                   const EvalOptions& opts = {});

}  // namespace tfpe::core
