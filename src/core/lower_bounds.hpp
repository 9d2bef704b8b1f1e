#pragma once
// Cheap analytic lower bounds for the S3 configuration search.
//
// For a parallelization configuration these bound, WITHOUT building the op
// list (no build_layer call):
//   * time_floor   — a FLOP-time plus exposed-layer-communication floor
//                    on the iteration time, valid for every NVS placement
//                    under the EvalOptions passed (the comm term reads
//                    tp_overlap; offload/recompute only add time).
//   * memory_floor — a placement-independent floor on the busiest GPU's
//                    resident bytes, valid for every placement.
//
// Both are conservative: time_floor <= iteration() and memory_floor <=
// mem.total() for every evaluation of the configuration. The search uses
// them to reject configurations before the (much more expensive) op-list
// construction and placement scan run: a candidate whose time_floor already
// exceeds the incumbent's achieved iteration time cannot improve the
// optimum, and one whose memory_floor exceeds HBM capacity is infeasible
// under every placement.
//
// Construction of the floors (see docs/API.md "Search complexity & pruning"
// for when they are exact):
//   * Every matmul of m x n x k sharded across the tp = n1*n2 tensor-
//     parallel GPUs executes at least (2k - min(tp, k)) * m * n / tp FLOPs
//     on one GPU, whichever dimensions the strategy splits (splitting the
//     contraction dim k by s <= min(tp, k) gives (2k/s - 1) * mn/(tp/s) =
//     (2k - s) * mn / tp; splitting m or n keeps the (2k - 1) coefficient
//     and is larger still; replication only adds).
//   * The backward of a projection runs dgrad (contraction = the output
//     dim) and wgrad (contraction = the token dim) in ops::matmul; SUMMA
//     prices its backward as exactly 2x the forward-contraction form. The
//     cross-builder backward floor is the min of the two accountings —
//     roughly 2x forward, so fwd+bwd is ~3x the forward FLOPs.
//   * Attention is ops::fused_attention in every builder: two
//     (lq x eh x lkv) matmuls + the in-kernel softmax, with the head dim
//     never sharded (only heads/queries/batch split), backward priced at
//     2.5x forward — so the floor keeps the full (4*eh + 3)-per-head-logit
//     cost with no tp relaxation loss.
//   * Every builder runs LN x2, dropout x2 and residual x2 on the
//     (bl x e) stream plus the dense GeLU on (bl x f), with sharded
//     element counts summing to the unsharded totals; the roofline charges
//     at least their HBM traffic (5 element reads+writes fwd+bwd at FP16).
//   * The MoE expert MLP (1D and 2D only) is restated op for op from
//     parallel/moe_mlp.cpp, exactly: with R = bl*top_k/n2 routed tokens and
//     F = f/n1, moe_fc1 and moe_fc2 each run ops::matmul's (2e-1)RF,
//     (2F-1)Re and (2R-1)eF FLOPs fwd + bwd, moe_gelu moves 5 FP16 element
//     reads+writes per R*F element, and dispatch plus combine move 8x the
//     AllToAll volume a2a = 2 * (bl/tp) * e * top_k bytes through HBM. The
//     FLOP and byte sums carry a 1e-9 relative slack. The router is left
//     out.
//   * 1F1B iteration time is at least (m + (np-1)/v) per-stage microbatch
//     times, and each of those is at least the stage's FLOP + vector time
//     plus its exposed TP communication.
//   * Layer communication: every placement moves the builders' Table A2
//     volumes on the n1 and n2 groups — 1D the AG/RS pairs on the full
//     activation (4 dense; MoE 3 plus moe_fc2's, top_k pairs on the
//     routed tokens); 2D the same pairs on the l/n2 shard over n1 and the
//     K/V AllGathers (or the linear-attention AllReduce) over n2; SUMMA the
//     two LN AllReduces and the out_proj ReduceScatter over n1, the K/V
//     gathers over n2, and per summa_matmul 3 M*K/n2 bytes over n1 and
//     3 K*N/n1 over n2. MoE adds the four dispatch/combine AllToAlls of
//     a2a bytes, which the kernel prices on the DP group at nd. Single-
//     panel ops count (1 - tp_overlap) of their bytes and nb-panel ops
//     bytes/nb (their exposure t + max(0, t - t_panel)(nb - 1) is >= the
//     first panel's t). Ring attention, the DP gradient and PP traffic and
//     recompute's repeated forward comm are left out.
//     Why this stays a lower bound: the evaluator's op time is roofline
//     compute PLUS exposed comm (they add, not max), and the stage times,
//     comm included, feed the bubble, so iteration() >= (m + (np-1)/v) *
//     layers * (compute floor + comm floor) plus the Adam, P2P and ZeRO-3
//     terms. comm::collective_time_floor is a max of per-level terms each
//     linear in the bytes, so one call on a group's summed volume equals
//     the sum of the per-request floors up to rounding, which a 1e-9
//     relative slack absorbs (as the placement-floor screen's does).
//   * Network floors walk the resolved hw::Topology: the pipeline handoff
//     pays at least the boundary-tensor wire time over the fabric's fastest
//     single link, and ZeRO-3's per-microbatch weight-gather/grad-scatter
//     at least comm::collective_time_floor — the algorithm-independent
//     ingress/bisection bound of the bottleneck level.
//   * One level up, prefix_time_floor bounds every candidate below an
//     (n1, n2, np, nd, nb) prefix of the search tree at once: the same
//     terms relaxed over m, interleave, ZeRO stage and ring attention (see
//     its comment), so the search skips the prefix unexpanded when the floor
//     is above the incumbent. Its leaves' memory floors need no expansion
//     either: memory_floor reads only m and the ZeRO stage below the prefix.

#include <cstdint>

#include "core/evaluator.hpp"
#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::core {

struct SearchBounds {
  /// Lower bound on iteration() [s]; <= every placement's evaluated time.
  double time_floor = 0;
  /// Lower bound on mem.total() [bytes]; placement-independent.
  double memory_floor = 0;
};

/// Bounds for `cfg` on `sys`. `cfg` must satisfy the divisibility
/// constraints (invalid_reason() == nullopt with unit placement); the
/// placement fields are ignored. The bounds hold for evaluations under
/// `opts` (tp_overlap scales the TP floor, activation offload the memory
/// floor) and no others: it must be the options the search times with.
SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts);

/// Same bounds, with the fabric resolved by the caller. The convenience
/// overload above calls sys.resolved_fabric() internally; a screen that
/// bounds many candidates against one system should resolve once and use
/// this form (bitwise-identical results — the fabric is the same object
/// either way).
SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const hw::Topology& fabric,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts);

/// The fabric-independent prefix of search_bounds: the compute/optimizer
/// time floor, the memory floor, and the intermediates the network terms
/// reuse. Valid for every fabric on a system with the same GPU roofline —
/// the sweep computes it once per chain and re-finishes it per point.
struct SearchBoundsBase {
  /// time_floor before the network terms: the FLOP and vector floors
  /// (the MoE expert MLP's included) times micro_layers, plus Adam.
  double compute_floor = 0;
  double memory_floor = 0;
  double stage_params_floor = 0; ///< reused by the ZeRO-3 collective floor
  double bl = 0;                 ///< local batch x seq_len (P2P volume)
  double tp = 0;                 ///< n1 * n2 (P2P volume divisor)
  double micro_layers = 0;       ///< (m + (np-1)/v) * layers per stage
  /// Exposed TP bytes per layer per microbatch (fwd + bwd) on n1 / n2,
  /// MoE's moe_fc2 ReduceScatter pair included in tp1_bytes.
  double tp1_bytes = 0, tp2_bytes = 0;
  /// Exposed MoE AllToAll bytes per layer per microbatch (fwd + bwd) on
  /// the nd DP group; 0 for dense models.
  double dp_bytes = 0;
};

SearchBoundsBase search_bounds_base(const model::TransformerConfig& mdl,
                                    const hw::SystemConfig& sys,
                                    const parallel::ParallelConfig& cfg,
                                    std::int64_t global_batch,
                                    const EvalOptions& opts);

/// search_bounds(...).memory_floor, bitwise, without the time terms. It
/// reads n1, n2, np, nd, m and the ZeRO stage of `cfg`, and neither nb,
/// interleave nor ring attention, so the search classifies the leaves of a
/// candidate-tree prefix it never expands per (m, ZeRO stage).
double memory_floor(const model::TransformerConfig& mdl,
                    const parallel::ParallelConfig& cfg,
                    std::int64_t global_batch, const EvalOptions& opts);

/// Time floor of a candidate-tree prefix (search/enumerate.hpp): `cfg`
/// fixes the strategy, n1, n2, np, nd and nb; its microbatch count,
/// interleave and ZeRO stage are ignored, and its ring_attention is set when
/// any leaf of the prefix runs ring attention. The result is <= the
/// search_bounds time floor of every leaf (m | b/nd, any interleave, either
/// ZeRO stage, ring on or off as allowed) under `opts` on `fabric`.
///
/// Relaxation, with B = b/nd the local batch: a leaf runs m microbatches of
/// B/m samples, and its 1F1B floor is at least m (not m + (np-1)/v) of
/// them — the bubble is dropped. Every per-microbatch term except SUMMA's
/// weight broadcasts is linear in the tokens, so m of them cost at least
/// one microbatch of B samples: the FLOP floor at bl = B*l with the wgrad
/// contraction split capped at min(B*tp, B*l) (m * min(tp, B*l/m) is at
/// most that, as in shape_time_floor), the MoE expert MLP with its m wgrad
/// -1 terms bounded by B, the vector ops, and the layer collectives
/// (collective_time_floor is linear in the bytes). The SUMMA
/// weight traffic does not shrink with B/m and is counted once, not m
/// times. The pipeline handoff is priced at v = 1, the ZeRO-3 gathers are
/// dropped, and the Adam term is the leaves' own. The sum is scaled by
/// (1 - 1e-9) against the different floating-point groupings.
double prefix_time_floor(const model::TransformerConfig& mdl,
                         const hw::SystemConfig& sys,
                         const hw::Topology& fabric,
                         const parallel::ParallelConfig& cfg,
                         std::int64_t global_batch, const EvalOptions& opts);

/// The fabric-free part of prefix_time_floor: the FLOP, vector and Adam
/// terms, the layer collective volumes and the pipeline boundary volume. Valid for every
/// fabric on a system with the same GPU roofline, so the scan driver
/// computes it once per chain and prefix and finishes it per point.
struct PrefixFloorBase {
  double compute_floor = 0;   ///< the floor before the network terms
  double layers = 0;          ///< layers per stage
  double boundary_bytes = 0;  ///< local batch's boundary tensor (np > 1)
  SearchBoundsBase volumes;   ///< tp1/tp2/dp_bytes at b_loc = b/nd
};

PrefixFloorBase prefix_floor_base(const model::TransformerConfig& mdl,
                                  const hw::SystemConfig& sys,
                                  const parallel::ParallelConfig& cfg,
                                  std::int64_t global_batch,
                                  const EvalOptions& opts);

/// Add the fabric-dependent terms to a base. prefix_time_floor(...) is
/// exactly finish_prefix_floor(prefix_floor_base(...), ...), bitwise.
double finish_prefix_floor(const PrefixFloorBase& base,
                           const hw::Topology& fabric,
                           const parallel::ParallelConfig& cfg);

/// The per-layer, per-microbatch exposed communication floor (fwd + bwd)
/// of a base on `fabric`: collective_time_floor of tp1_bytes over n1, of
/// tp2_bytes over n2 and of dp_bytes over nd. finish_search_bounds adds it
/// times micro_layers; it is at most the block's floor_comm_walk fwd + bwd.
Seconds layer_comm_floor(const SearchBoundsBase& base,
                         const hw::Topology& fabric,
                         const parallel::ParallelConfig& cfg);

/// Add the fabric-dependent network floors to a base. search_bounds(...)
/// is exactly finish_search_bounds(search_bounds_base(...), ...) — the
/// split sits on a statement boundary of the original accumulation, so the
/// composed result is bitwise-identical, whichever path computed it.
SearchBounds finish_search_bounds(const SearchBoundsBase& base,
                                  const model::TransformerConfig& mdl,
                                  const hw::Topology& fabric,
                                  const parallel::ParallelConfig& cfg);

/// Architecture-level time floor: a compute-only lower bound on iteration()
/// over EVERY valid parallelization and placement of `mdl` on `n_gpus`
/// GPUs, from the shape and the system's tensor-core peak alone — no
/// candidate enumeration, no per-configuration work. The co-design search
/// (search/codesign.hpp) screens whole shapes against the cross-shape
/// incumbent with it before enumerating their candidate spaces.
///
/// Construction: every per-configuration compute floor above is a sum of
/// terms of the form
///   micros * layers * coeff * (2k - min(tp, k)) * bl / tp
/// with micros >= m, layers = d/np, bl = b*l/(nd*m) and tp*np*nd = n. The
/// m / np / nd factors collapse to b*l*d*(2k - min(tp, k))/n, which is
/// non-increasing in tp <= n, so replacing tp by n bounds every candidate.
/// The wgrad terms contract the token dimension, whose total split count
/// across DP ranks, microbatches and sequence shards is at most
/// min(b*n, b*l); the fused-attention and vector-op terms collapse with no
/// relaxation loss at all (their per-element cost is sharding-invariant).
/// The Adam, memory and network terms are dropped (floors only shrink), so
/// shape_time_floor <= search_bounds(...).time_floor <= iteration() for
/// every candidate — the property that keeps shape-level pruning exact.
/// Iso-parameter shapes differ mainly through the fused-attention term
/// (~e*d*l*lkv head-logit FLOPs, growing with e*d at fixed budget) and the
/// vector-op HBM term (~(6e + f)*d bytes/token), which is what separates
/// narrow-deep from wide-shallow shapes. This is the only floor that still
/// drops the MoE expert MLP (search_bounds and prefix_time_floor restate
/// it), so MoE shapes floor lower here than their dense peers.
double shape_time_floor(const model::TransformerConfig& mdl,
                        const hw::SystemConfig& sys, std::int64_t n_gpus,
                        std::int64_t global_batch);

/// Decode-phase floor on the per-token round time (ExecutionPhase::kDecode):
/// every decode round re-reads each stage's resident weight bytes at least
/// once and streams the whole resident K/V cache exactly once, so
///   TPOT >= (stage_weight_bytes + stage_kv_bytes) / hbm_bandwidth.
/// The modeled round (np group passes through the stage) reads the weights
/// np times, so decode_round_time >= this floor for every configuration —
/// asserted over the serve grid by tests/test_serving.cpp. FLOP and
/// collective terms are dropped (floors only shrink).
double decode_round_floor(Bytes stage_weight_bytes, Bytes stage_kv_bytes,
                          const hw::GpuSpec& gpu);

}  // namespace tfpe::core
