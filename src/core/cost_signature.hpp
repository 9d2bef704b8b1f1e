#pragma once
// Two-phase evaluation (build-once / re-time): hardware-invariant cost
// signatures compiled from a built layer, timed against a system in O(ops).
//
// A configuration's S1 op list depends only on (model, parallel config,
// microbatch) — never on the hardware — yet the paper's §IV sweeps re-run
// the full evaluation per hardware point (GPU generation, NVS domain size,
// bandwidth/capacity what-ifs). compile_signature() lowers a LayerCost into
// a CostSignature once:
//   * per-op roofline operands (FLOPs + HBM bytes per class, SUMMA panel
//     structure, tensor-core vs vector unit),
//   * flattened collective requests with per-group volumes,
//   * the vocabulary-head ops and the stored-activation / pipeline-boundary
//     bytes,
//   * the full hardware-free memory breakdown (weights, gradients, Adam
//     shard, in-flight activations) and the DP/optimizer traffic scalars.
// Timing is the SoA kernel's (core/batched_signature.hpp) for every phase
// — training candidates, prefill and decode stages alike: the per-system
// roofline bind, then the per-placement collective, pipeline and DP terms,
// BITWISE identical to core::evaluate_with_layer, the independent oracle,
// on the layer the signature was compiled from (guarded by the golden
// matrix and randomized property tests). adapt_to_phase and
// compile_decode_signature lower; they do not time.
//
// BLOCK / TAIL SPLIT. A CostSignature is two halves with different keys:
//   * the BLOCK (compile_layer) — op, comm and head records plus the
//     BlockScalars — depends only on the built layer, i.e. on the
//     search::LayerKey slice of the config, so every (np, nd, m, zero)
//     candidate with the same layer shares it;
//   * the TAIL (compile_tail, SignatureTail) — layers per stage,
//     microbatches, the DP and optimizer scalars and the memory breakdown
//     — is a few multiplies per candidate, computed from the block's
//     scalars.
// compile_signature is compile_layer followed by compile_tail, so each
// scalar statement exists once and a tail compiled against a shared block
// is bitwise the signature's own. The search engines keep the halves apart
// (search::lower_block, core/batched_signature.hpp's bind_block /
// finish_bind), lowering and binding each layer once however many
// candidates use it.
//
// Thread-safety: CostSignature and SystemTiming are immutable after
// construction; any number of threads may share them. The compile phase is
// pure. Whole signatures are shared through search::SignatureCache (the
// serve planner's prefill signatures); the engines share blocks and tails
// (search/search_cache.hpp).

#include <array>
#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "core/workload.hpp"
#include "hw/system.hpp"
#include "memory/memory_model.hpp"
#include "model/transformer.hpp"
#include "ops/op.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::core {

/// Roofline of one op pass split per SUMMA panel: t_sf + max(flop, mem)
/// per panel, attributed to compute or memory by the dominant side. This is
/// the single source of the innermost evaluator arithmetic — core::op_time
/// and the two-phase binder both call it, so they cannot drift apart.
struct PanelRoofline {
  /// panel_roofline assigns only the dominant side, so both fields carry
  /// explicit zero initializers — the non-dominant side must read exactly
  /// Seconds(0), not whatever the storage held (pinned by
  /// tests/test_signature.cpp PanelRooflineZeroInitialized).
  Seconds compute = Seconds(0);  ///< Attributed FLOP-bound time (all panels).
  Seconds memory = Seconds(0);   ///< Attributed memory-bound time (all panels).
  Seconds t_panel = Seconds(0);  ///< One panel (the SUMMA overlap budget).
};

inline PanelRoofline panel_roofline(Flops flops, Bytes bytes,
                                    std::int64_t panels, bool tensor_core,
                                    const hw::GpuSpec& gpu) {
  const FlopsPerSec peak = tensor_core ? gpu.tensor_flops : gpu.vector_flops;
  const Seconds t_sf = tensor_core ? gpu.flops_latency : Seconds(0);
  const double inv_panels = 1.0 / static_cast<double>(panels);
  const Seconds t_flop = flops * inv_panels / peak;
  const Seconds t_mem = bytes * inv_panels / gpu.hbm_bandwidth;
  PanelRoofline out;
  out.t_panel = t_sf + std::max(t_flop, t_mem);
  if (t_flop >= t_mem) {
    out.compute = out.t_panel * static_cast<double>(panels);
  } else {
    out.memory = out.t_panel * static_cast<double>(panels);
  }
  return out;
}

/// One flattened collective request (the signature's comm pool; ops index
/// into it so the request vectors need no per-op allocation at time time).
struct SigComm {
  ops::Collective collective = ops::Collective::None;
  ops::CommGroup group = ops::CommGroup::TP1;
  Bytes bytes;  ///< Full tensor volume (per-panel scaling applied at time).
};

/// Roofline operands of one block op, forward and backward.
struct SigOp {
  Flops fwd_flops;
  Bytes fwd_bytes;
  Flops bwd_flops;
  Bytes bwd_bytes;
  std::int64_t panels = 1;   ///< SUMMA contraction panels (1 = plain op).
  bool tensor_core = false;  ///< Tensor-core vs vector FLOP rate.
  // [begin, begin+count) ranges into CostSignature::comm.
  std::uint32_t fwd_comm_begin = 0;
  std::uint32_t fwd_comm_count = 0;
  std::uint32_t bwd_comm_begin = 0;
  std::uint32_t bwd_comm_count = 0;
};

/// Vocabulary-head op (embedding gather / logits matmul / softmax+xent):
/// compute + HBM only, no collectives, never SUMMA-split.
struct SigHeadOp {
  Flops fwd_flops;
  Bytes fwd_bytes;
  Flops bwd_flops;
  Bytes bwd_bytes;
  bool tensor_core = false;
};

/// The per-LayerKey scalars of a signature: what the built layer alone
/// fixes, shared by every candidate whose (np, nd, m, zero) differ but whose
/// layer is the same (search::LayerKey). The SoA block
/// (core/batched_signature.hpp) carries them next to its op rows.
struct BlockScalars {
  Bytes stored_activation_bytes;  ///< Per microbatch per block.
  Bytes pp_boundary_bytes;        ///< Pipeline handoff per microbatch.
  double weight_params = 0;       ///< Per block.
  bool dp_group_includes_tp2 = false;
  double head_weight_params = 0;  ///< 0 when the model has no vocabulary.
};

/// The per-candidate scalar tail of a signature: everything (np, nd, m,
/// zero) and the EvalOptions change while the layer is held fixed. Cheap
/// to compile (compile_tail: a few multiplies and the memory breakdown),
/// so the search engines compile one per candidate against a shared block.
struct SignatureTail {
  std::int64_t microbatches = 1;      ///< m (decode: np rotating groups)
  std::int64_t np = 1;                ///< pipeline stages
  std::int64_t layers_per_stage = 1;  ///< depth / np
  std::int64_t local_microbatch = 1;  ///< b / (nd * m)
  double stage_params = 0;   ///< weight_params * layers_per_stage.
  std::int64_t dp_size = 1;  ///< nd (x n2 when the flag is set).
  Bytes dp_grad_bytes;       ///< 2 B/param gradient volume per stage.
  double opt_shard = 1;      ///< Adam shard width (dp_size).
  Bytes optimizer_traffic;   ///< 28 B/param HBM traffic of the Adam update.

  /// Busiest-GPU residency, hardware-free (recompute override, offload
  /// fraction and head-shard adjustments already applied).
  memory::MemoryBreakdown mem;
};

/// Hardware-invariant compilation of one candidate: everything the time
/// phase needs, with no reference back to the op list. Valid for any
/// hw::SystemConfig and any NVS placement of the same (n1, n2, np, nd);
/// also interleave-invariant (the schedule enters only at time time).
/// Depends on EvalOptions (recompute/offload shape the memory breakdown),
/// so cache signatures per (model, global batch, EvalOptions).
/// It is the block half (op, comm and head records plus BlockScalars, from
/// compile_layer) and the candidate's SignatureTail (compile_tail) in one
/// object; the search engines keep the halves apart.
struct CostSignature : SignatureTail, BlockScalars {
  /// Execution phase of the op tables below. Training signatures carry the
  /// full fwd+bwd+optimizer records exactly as always; inference phases
  /// zero the backward dimension (ops, aggregates, DP/optimizer scalars).
  ExecutionPhase phase = ExecutionPhase::kTraining;

  std::vector<SigOp> ops;
  std::vector<SigComm> comm;   ///< Flattened fwd+bwd requests of all ops.
  std::vector<SigHeadOp> head; ///< Empty when the model has no vocabulary.

  // Aggregate totals per op class and comm group — summaries for the
  // invariant analyzer and reports; the per-op records drive the timing.
  Flops matmul_fwd_flops, matmul_bwd_flops;
  Bytes matmul_fwd_bytes, matmul_bwd_bytes;
  Flops vector_fwd_flops, vector_bwd_flops;
  Bytes vector_fwd_bytes, vector_bwd_bytes;
  std::array<Bytes, 4> fwd_comm_volume{};  ///< Indexed by ops::CommGroup.
  std::array<Bytes, 4> bwd_comm_volume{};

  Flops fwd_flops() const { return matmul_fwd_flops + vector_fwd_flops; }
  Flops bwd_flops() const { return matmul_bwd_flops + vector_bwd_flops; }
  Bytes fwd_hbm_bytes() const { return matmul_fwd_bytes + vector_fwd_bytes; }
  Bytes bwd_hbm_bytes() const { return matmul_bwd_bytes + vector_bwd_bytes; }
};

/// The block half of compile_signature: the op, comm and head records,
/// their aggregates and the BlockScalars. It reads cfg only through the
/// LayerKey slice (strategy, n1, n2, nb, ring attention, the local
/// microbatch and the MoE width), so every candidate sharing a layer shares
/// its output. The SignatureTail part is left at its defaults.
CostSignature compile_layer(const model::TransformerConfig& mdl,
                            const parallel::ParallelConfig& cfg,
                            std::int64_t global_batch,
                            const parallel::LayerCost& layer);

/// The BlockScalars half of compile_layer: the layer's stored, boundary
/// and weight scalars and the vocabulary head's weight shard.
BlockScalars block_scalars(const model::TransformerConfig& mdl,
                           const parallel::ParallelConfig& cfg,
                           const parallel::LayerCost& layer);

/// The tail half of compile_signature, from the block's scalars alone:
/// compile_signature(mdl, cfg, b, layer, opts) is compile_layer plus this,
/// so a tail compiled against a shared block equals the signature's own
/// tail bit for bit.
SignatureTail compile_tail(const model::TransformerConfig& mdl,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const BlockScalars& block,
                           const EvalOptions& opts = {});

/// Per-token memory floor: a lower bound on compile_tail(mdl, cfg, b,
/// block, opts).mem.total() for cfg's block, from `unit`, the
/// block_scalars of the same layer built at local microbatch 1. Every
/// builder's stored and pipeline-boundary bytes are linear in the local
/// microbatch B (no ceil or min on it) and its weight scalars do not read
/// B, so compile_tail's own statements on `unit` with those two bytes
/// scaled by B give the tail's total up to rounding; the 1e-9 relative
/// slack covers the different groupings. Unlike the analytic
/// core::memory_floor it counts every stored activation (the gathered
/// inputs every tensor-parallel GPU keeps whole), not just the block
/// boundary, at the cost of one build_layer per layer family.
double token_memory_floor(const model::TransformerConfig& mdl,
                          const parallel::ParallelConfig& cfg,
                          std::int64_t global_batch, const BlockScalars& unit,
                          const EvalOptions& opts);

/// Lower a built layer into its signature. `cfg` must satisfy the
/// hardware-free divisibility constraints (np | depth, nd*m | b, ...);
/// the placement fields are ignored. `layer` must match cfg's parallel
/// dims and local microbatch, as for evaluate_with_layer.
CostSignature compile_signature(const model::TransformerConfig& mdl,
                                const parallel::ParallelConfig& cfg,
                                std::int64_t global_batch,
                                const parallel::LayerCost& layer,
                                const EvalOptions& opts = {});

/// Convenience: build the layer, then compile. Debug builds cross-check the
/// op list against the invariant analyzer first (same hook as the
/// single-phase evaluator).
CostSignature compile_signature(const model::TransformerConfig& mdl,
                                const parallel::ParallelConfig& cfg,
                                std::int64_t global_batch,
                                const EvalOptions& opts = {});

/// Re-emit a training-compiled signature as a forward-only inference
/// phase: backward op records, aggregates and collectives zeroed, the
/// DP-gradient and Adam-traffic scalars dropped, and the memory breakdown
/// rebuilt for inference (no gradient/optimizer state; one microbatch's
/// stored-activation footprint is kept as a conservative transient
/// working-set bound; the K/V term is filled by the serving estimator,
/// which owns the residency decision).
CostSignature adapt_to_phase(CostSignature sig, ExecutionPhase phase);

/// Decode lowering: `tokens_per_group` single-token queries against a
/// `kv_len`-token cache per decode group, cfg.np groups rotating around
/// the stages (cfg must be 1D tensor parallel; only n1/np are read).
CostSignature compile_decode_signature(const model::TransformerConfig& mdl,
                                       const parallel::ParallelConfig& cfg,
                                       double tokens_per_group, double kv_len);

/// Placement-independent part of timing a signature on one system (the SoA
/// bind, bind_block + finish_bind): the roofline dot products over the op
/// records. Amortizes across the NVS placement scan — per placement only
/// the collective terms remain.
struct SystemTiming {
  double time_compute = 0;  ///< TimeBreakdown::compute, all microbatches.
  double time_memory = 0;   ///< TimeBreakdown::memory.
  double optimizer = 0;     ///< TimeBreakdown::optimizer.
  /// The system's resolved fabric, captured once per bind so the placement
  /// scan walks it without re-deriving the topology per candidate.
  hw::Topology fabric;
  Seconds fwd_cm;           ///< Per-microbatch per-block compute+memory.
  Seconds bwd_cm;
  Seconds head_fwd_cm;      ///< Head compute+memory per microbatch.
  Seconds head_bwd_cm;
  /// (fwd t_panel, bwd t_panel) for each SUMMA op, in op order — the
  /// overlap budget of the panel broadcasts (empty for non-SUMMA layers).
  std::vector<std::array<Seconds, 2>> summa_panel_time;
};

/// Whole-signature bind: core::bind_system_batched(sig, lower_batched(sig),
/// sys, opts). For callers holding only the AoS signature (the benchmark's
/// plan replay); the engines bind the shared SoA block instead.
SystemTiming bind_system(const CostSignature& sig, const hw::SystemConfig& sys,
                         const EvalOptions& opts = {});

/// One placement's timing, as time_placements_batch produces it: the full
/// TimeBreakdown (base fields copied through, collective/pipeline/DP terms
/// computed for the placement) plus the per-microbatch stage times —
/// bitwise the time, t_fwd_micro and t_bwd_micro evaluate_with_layer
/// reports at that placement. search::scan_placements_batch packages the
/// winner into an EvalResult.
struct PlacementTiming {
  TimeBreakdown time;
  Seconds t_fwd_stage;
  Seconds t_bwd_stage;
};

}  // namespace tfpe::core
