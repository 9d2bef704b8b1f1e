#pragma once
// Batched structure-of-arrays lowering of a CostSignature: the evaluation
// hot path restructured from per-op scalar walks into contiguous-array
// kernels that time N placements (and M systems) per signature in one pass.
//
// The scalar two-phase path (core/cost_signature.hpp) walks the AoS
// SigOp/SigComm records once per placement, re-pricing every collective
// request with a full fabric walk each time. Across the placements of one
// candidate those walks are massively redundant: a request's
// collective_time depends on the placement only through its group's
// (size, nvs) pair, and across an enumerated placement set each group takes
// just a handful of distinct nvs values. lower_batched() packs the operands
// into flat arrays once per signature; time_placements_batch() then
//   * dedupes the comm pool into one pricing row per distinct
//     (collective, group, panel-bytes) triple and prices each row once
//     per DISTINCT nvs value of its group, on first read (a small table
//     instead of |placements| x |requests| fabric walks),
//   * streams every placement through one linear pass over the packed
//     arrays, assembling per-op exposed-communication sums, stage times and
//     the pipeline/DP terms from table lookups,
//   * memoizes the placement-dependent P2P (two variants: nvsp fast/slow)
//     and DP-collective terms (one per distinct DP-group nvs).
//
// BITWISE CONTRACT: every arithmetic statement evaluates the same pure
// functions on the same operands in the same order as the scalar
// time_placement/bind_system, so the results are bit-for-bit identical —
// not approximately equal (guarded by the golden matrix and the randomized
// property tests in tests/test_signature.cpp / tests/test_sweep_pipeline.cpp,
// the same discipline as the two-phase split itself). Keep this file in FP
// lockstep with core/cost_signature.cpp and core/evaluator.cpp.
//
// Thread-safety: BatchedSignature is immutable after lower_batched(); any
// number of threads may share it (cross-sweep sharing lives in
// search::BatchedCache). BatchScratch is per-thread mutable state.

#include <array>
#include <cstdint>
#include <vector>

#include "comm/collective_algorithm.hpp"
#include "core/cost_signature.hpp"

namespace tfpe::core {

/// Hardware-invariant SoA packing of one CostSignature. Parallel arrays
/// (one slot per CostSignature::ops entry, in op order) plus a flattened
/// comm pool in CostSignature::comm order; indices are shared with the AoS
/// form so the two views describe the same signature.
struct BatchedSignature {
  // Per-op roofline operands (op order preserved).
  std::vector<Flops> fwd_flops, bwd_flops;
  std::vector<Bytes> fwd_bytes, bwd_bytes;
  std::vector<std::int64_t> panels;
  std::vector<std::uint8_t> tensor_core;  ///< 0/1 (vector<bool> defeats SoA).
  std::vector<std::uint32_t> fwd_comm_begin, fwd_comm_count;
  std::vector<std::uint32_t> bwd_comm_begin, bwd_comm_count;
  /// Ops with panels > 1, in op order — mirrors SystemTiming::summa_panel_time.
  std::vector<std::uint32_t> summa_ops;

  // Comm pool (CostSignature::comm order preserved).
  std::vector<ops::Collective> comm_kind;
  std::vector<std::uint8_t> comm_group;  ///< ops::CommGroup as an index.
  /// Pre-scaled per-panel volume: req.bytes * (1 / op.panels), the exact
  /// product the scalar exposed_comm feeds to collective_time.
  std::vector<Bytes> comm_panel_bytes;
  /// Bitmask of the comm groups that actually appear in the pool
  /// (bit g set <=> some request has comm_group == g). The per-placement
  /// comm sums depend on the placement only through these groups' nvs
  /// values, so placements agreeing on them share one comm block.
  std::uint8_t comm_groups_mask = 0;
  /// Pricing-row dedup: requests with the same (collective, group) and
  /// bit-identical panel volume are the same pure collective_time call
  /// under every placement — a transformer layer repeats its boundary
  /// allreduce per op — so the comm table carries one priced row per
  /// distinct triple. comm_price_row maps each request to its table row;
  /// price_rep holds one representative request index per row.
  std::vector<std::uint32_t> comm_price_row;
  std::vector<std::uint32_t> price_rep;

  // Head ops (head order preserved).
  std::vector<Flops> head_fwd_flops, head_bwd_flops;
  std::vector<Bytes> head_fwd_bytes, head_bwd_bytes;
  std::vector<std::uint8_t> head_tensor_core;

  std::size_t op_count() const { return fwd_flops.size(); }
  std::size_t comm_count() const { return comm_kind.size(); }
};

/// Pack a compiled signature into its SoA form. Pure; call once per
/// signature and share the result (search::BatchedCache).
BatchedSignature lower_batched(const CostSignature& sig);
/// The same lowering into `out`, replacing its contents but keeping its
/// vectors' capacity — for a caller that lowers one single-use signature
/// after another into the same buffers.
void lower_batched(const CostSignature& sig, BatchedSignature& out);

/// Reusable per-thread scratch for time_placements_batch, so the placement
/// scan of a sweep performs no per-candidate allocations once warm. Tables
/// are EPOCH-RESET: each kernel call bumps `epoch` and lazily reclaims the
/// cell storage through the per-cell epoch stamps instead of clearing it,
/// so a warm scratch's per-call cost is independent of its high-water mark.
struct BatchScratch {
  /// Distinct nvs values per comm group (TP1, TP2, DP, PP) and each
  /// placement's column index into them.
  std::array<std::vector<std::int64_t>, 4> distinct_nvs;
  std::array<std::vector<std::uint32_t>, 4> nvs_column;
  /// Pre-walked placement of each (group, distinct-nvs column) pair, for
  /// the groups in comm_groups_mask: validation and the fabric walk are
  /// hoisted here, once per column, out of the per-cell pricing loop. The
  /// entries point into the pricer's place_ref memo — rewritten at the top
  /// of every kernel call, valid only until the pricer rebinds.
  std::array<std::vector<const comm::FabricPricer::Placed*>, 4> placed;
  /// comm-table row offsets (one per pricing row, see comm_price_row) and
  /// the priced table itself. A cell is valid when its epoch stamp equals
  /// `epoch`; stale cells are re-priced on first use. Cells are priced one
  /// pricing-row pass per comm-block miss (the block memo below), so
  /// columns no missed placement lands on are never priced.
  std::vector<std::uint32_t> row_offset;
  std::vector<Seconds> comm_table;
  std::vector<std::uint64_t> cell_epoch;
  std::uint64_t epoch = 0;
  /// Comm-block memo: the op-walk's outputs depend on the placement only
  /// through the table columns of the groups in comm_groups_mask, so
  /// placements agreeing on those columns share one block bit for bit.
  struct CommBlock {
    Seconds t_fwd_stage, t_bwd_stage;
    double tp_comm = 0, bubble = 0;
  };
  std::vector<std::uint64_t> block_keys;
  std::vector<CommBlock> blocks;
  /// DP-term memo (t_reduce_scatter, t_all_gather per distinct DP-group
  /// nvs), kept here so a warm scan prices DP terms allocation-free.
  std::vector<std::int64_t> dp_keys;
  std::vector<std::array<Seconds, 2>> dp_terms;
  /// placement_floor's per-pricing-row collective floors (one per
  /// BatchedSignature::price_rep entry), kept here so the screen runs
  /// allocation-free once warm.
  std::vector<Seconds> row_floor;
};

/// SoA bind: bitwise-identical to bind_system(sig, sys, opts) — the same
/// panel_roofline calls accumulated in the same op order, read from the
/// packed arrays instead of the AoS records. `capture_fabric = false` skips
/// the SystemTiming::fabric copy for callers that price collectives through
/// an external FabricPricer (the generation-major sweep path) — every other
/// field is unaffected, but time_placement/time_signature must NOT be fed
/// such a timing.
SystemTiming bind_system_batched(const CostSignature& sig,
                                 const BatchedSignature& bat,
                                 const hw::SystemConfig& sys,
                                 const EvalOptions& opts = {},
                                 bool capture_fabric = true);

/// Bind one signature against M systems in one pass over the packed
/// operands. out[k] is bitwise-identical to bind_system(sig, systems[k]).
std::vector<SystemTiming> bind_systems_batch(
    const CostSignature& sig, const BatchedSignature& bat,
    const std::vector<hw::SystemConfig>& systems, const EvalOptions& opts = {});

/// Time N placements of one bound (signature, system) in one batched pass.
/// placements[i] is (nvs1, nvs2, nvsp, nvsd), the enumerate_placements
/// tuple order; out is resized to placements.size() and out[i] is
/// bitwise-identical to time_placement(sig, base, sys, cfg_i, opts) where
/// cfg_i is cfg with placements[i] applied. `scratch` may be reused across
/// calls (and should be, on the hot path); pass nullptr to use a transient
/// one. When `pricer` is non-null it performs ALL collective pricing and
/// `base.fabric` is never read — the caller guarantees it is bound to the
/// fabric these placements should be priced against (the generation-major
/// chain keeps one pricer per grid point, so the per-candidate SystemTiming
/// needs no fabric restamp). Null builds a transient pricer on base.fabric.
void time_placements_batch(
    const CostSignature& sig, const BatchedSignature& bat,
    const SystemTiming& base, const hw::SystemConfig& sys,
    const parallel::ParallelConfig& cfg,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const EvalOptions& opts, std::vector<PlacementTiming>& out,
    BatchScratch* scratch = nullptr,
    const comm::FabricPricer* pricer = nullptr);

/// Placement-independent lower bound on time.total() for EVERY placement
/// in any enumerated set of (sig, cfg) priced against pricer.fabric(): the
/// search screens a candidate whose floor is above the incumbent before
/// time_placements_batch runs. Built as a TimeBreakdown summed in total()'s
/// order:
///   * compute, memory and optimizer come exactly from `base`;
///   * tp_comm runs the kernel's own op walk — SUMMA panel exposure,
///     (1 - tp_overlap) scaling, recompute term — over one floor per
///     pricing row instead of the priced cells: comm::collective_time_floor
///     on the row's group size and panel volume, except PointToPoint rows,
///     whose floor is the volume over comm::best_p2p_bandwidth (the
///     collective floor's (g-1)/g ingress argument does not bound a single
///     hop, and is measured above the P2P price on shallow fabrics);
///   * bubble is pipeline::bubble_time on the floored stage times;
///   * pp_comm and dp_comm are 0.
/// Every step is monotone in the row times, so floor <= total up to the
/// rounding of the row floors against the prices. Returns 0 (no screen)
/// when !(opts.tp_overlap <= 1): exposed communication is negative there
/// and the walk is no longer monotone. Uses scratch.row_floor only.
double placement_floor(const CostSignature& sig, const BatchedSignature& bat,
                       const SystemTiming& base,
                       const comm::FabricPricer& pricer,
                       const parallel::ParallelConfig& cfg,
                       const EvalOptions& opts, BatchScratch& scratch);

/// N placements x M systems in one call: out[k] holds placements.size()
/// timings against systems[k] (bound via bind_systems_batch). Convenience
/// composition of the two kernels above for grid-shaped queries.
std::vector<std::vector<PlacementTiming>> time_placements_systems_batch(
    const CostSignature& sig, const BatchedSignature& bat,
    const std::vector<hw::SystemConfig>& systems,
    const parallel::ParallelConfig& cfg,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const EvalOptions& opts = {});

}  // namespace tfpe::core
