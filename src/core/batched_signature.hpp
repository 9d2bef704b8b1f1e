#pragma once
// Batched structure-of-arrays lowering of a CostSignature: the evaluation
// hot path restructured from per-op scalar walks into contiguous-array
// kernels that time N placements per signature in one pass.
//
// A per-placement walk of the AoS SigOp/SigComm records (core::evaluate's
// shape) re-prices every collective request with a full fabric walk each
// time. Across the placements of one candidate those walks are massively
// redundant: a request's collective_time depends on the placement only
// through its group's (size, nvs) pair, and across an enumerated placement
// set each group takes just a handful of distinct nvs values.
// lower_batched() packs the operands into flat arrays once per signature;
// time_placements_batch() then
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
// functions on the same operands in the same order as the independent
// oracle, core::evaluate_with_layer, so each placement's timing is
// bit-for-bit the oracle's — not approximately equal (guarded by the golden
// matrix and the randomized property tests in tests/test_signature.cpp /
// tests/test_sweep_pipeline.cpp, which compare the kernel with the oracle
// per placement). The oracle and this kernel are the two views of the
// evaluation order: keep this file in FP lockstep with core/evaluator.cpp
// (and the binds with core::bind_system).
//
// PER-BLOCK / PER-CANDIDATE SPLIT. The BatchedSignature is the block half
// of a signature (see cost_signature.hpp); the kernels take the
// candidate's SignatureTail beside it. Binding and the placement floor
// split the same way, each into a per-block half and a tail of the
// one-shot form's own statements:
//   * bind_block (per block x system: the op-walk roofline sums and SUMMA
//     panel budgets) + finish_bind (per candidate: the Ld / m scaling);
//   * floor_comm_walk (per block x fabric when the pool uses only the TP
//     groups, whose sizes the layer fixes; per candidate otherwise) +
//     finish_placement_floor (stage times, bubble, total).
// The per-block halves read nothing of the tail and the tails repeat the
// one-shot statements on the same operands in the same order, so a block
// shared by many candidates gives every candidate the bits its own
// bind_system_batched / placement_floor would
// (BlockTail.MatchesWholeSignatureBitwise).
//
// Thread-safety: BatchedSignature is immutable after lower_batched(); any
// number of threads may share it (the engines share one per LayerKey,
// search/search_cache.hpp). BatchScratch is per-thread mutable state.

#include <array>
#include <cstdint>
#include <vector>

#include "comm/collective_algorithm.hpp"
#include "core/cost_signature.hpp"

namespace tfpe::core {

/// Hardware-invariant SoA packing of one CostSignature's block half — the
/// engine's per-LayerKey BLOCK. Parallel arrays (one slot per
/// CostSignature::ops entry, in op order) plus a flattened comm pool in
/// CostSignature::comm order; indices are shared with the AoS form so the
/// two views describe the same signature. It carries no SignatureTail: the
/// kernels below take the candidate's tail separately, so one block serves
/// every candidate sharing its layer.
struct BatchedSignature : BlockScalars {
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
  /// product core::op_time feeds to collective_time.
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
  bool has_head() const { return !head_fwd_flops.empty(); }
};

/// Pack a compiled signature's block half (records and BlockScalars) into
/// its SoA form. Pure; the search engines call it once per LayerKey on
/// compile_layer's output and share the block. Debug builds check the
/// packing against the records (analysis::assert_batched_invariants).
BatchedSignature lower_batched(const CostSignature& sig);

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

/// The per-(block, system) half of bind_system_batched: the op walk's
/// roofline sums (recompute and host-offload terms included) and the SUMMA
/// panel budgets. Everything here reads the block, the GPU roofline, the
/// host link and the EvalOptions — never the candidate's tail.
struct BlockTiming {
  Seconds fwd_c, fwd_m, bwd_c, bwd_m;  ///< Per microbatch per block.
  Seconds head_fwd_c, head_fwd_m, head_bwd_c, head_bwd_m;
  /// (fwd t_panel, bwd t_panel) for each SUMMA op, in op order.
  std::vector<std::array<Seconds, 2>> summa_panel_time;
};

BlockTiming bind_block(const BatchedSignature& bat, const hw::SystemConfig& sys,
                       const EvalOptions& opts = {});

/// The per-candidate tail of bind_system_batched: scales the block sums by
/// the tail's layers per stage and microbatches into `out` (every field but
/// `fabric`, which is left as is). The same statements in the same order as
/// the one-shot bind, so a block bound once and finished per candidate
/// equals bind_system_batched bit for bit.
void finish_bind(const BlockTiming& part, const SignatureTail& sig,
                 const hw::SystemConfig& sys, SystemTiming& out);

/// SoA bind: bitwise-identical to bind_system(sig, sys, opts) — the same
/// panel_roofline calls accumulated in the same op order, read from the
/// packed arrays instead of the AoS records (bind_block, then
/// finish_bind), plus the system's resolved fabric. The engines, which
/// price through their own FabricPricer, call the two halves directly.
SystemTiming bind_system_batched(const SignatureTail& sig,
                                 const BatchedSignature& bat,
                                 const hw::SystemConfig& sys,
                                 const EvalOptions& opts = {});

/// Time N placements of one bound (signature, system) in one batched pass.
/// placements[i] is (nvs1, nvs2, nvsp, nvsd), the enumerate_placements
/// tuple order; out is resized to placements.size() and out[i] is
/// bitwise the time breakdown and stage times of
/// evaluate_with_layer(mdl, sys, cfg_i, b, layer, opts), where cfg_i is cfg
/// with placements[i] applied and (sig, bat) were compiled from that layer
/// and bound to sys. `scratch` may be reused across calls (and should be,
/// on the hot path); pass nullptr to use a transient one. When `pricer` is
/// non-null it performs ALL collective pricing and `base.fabric` is never
/// read — the caller guarantees it is bound to the fabric these placements
/// should be priced against (the generation-major chain keeps one pricer
/// per grid point, so the per-candidate SystemTiming needs no fabric
/// restamp). Null builds a transient pricer on base.fabric.
void time_placements_batch(
    const SignatureTail& sig, const BatchedSignature& bat,
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
/// rounding of the row floors against the prices. Precondition: opts
/// passes EvalOptions::validate() (tp_overlap in [0, 1]); above full
/// overlap exposed communication is negative and the walk is no longer
/// monotone. Uses scratch.row_floor only.
/// It is floor_comm_walk followed by finish_placement_floor.
double placement_floor(const SignatureTail& sig, const BatchedSignature& bat,
                       const SystemTiming& base,
                       const comm::FabricPricer& pricer,
                       const parallel::ParallelConfig& cfg,
                       const EvalOptions& opts, BatchScratch& scratch);

/// The floor's exposed-communication sums per microbatch per block (the
/// op walk over the row floors), before the tail scales them.
struct FloorWalk {
  Seconds fwd_comm, bwd_comm;
};

/// placement_floor's op walk: reads the block, its SUMMA panel budgets
/// (BlockTiming::summa_panel_time or SystemTiming::summa_panel_time, the
/// same values), the fabric, the EvalOptions, and cfg only through the
/// sizes of the groups its pricing rows use. `row_floor` is scratch.
FloorWalk floor_comm_walk(
    const BatchedSignature& bat,
    const std::vector<std::array<Seconds, 2>>& summa_panel_time,
    const hw::Topology& fabric, const parallel::ParallelConfig& cfg,
    const EvalOptions& opts, std::vector<Seconds>& row_floor);

/// True when floor_comm_walk reads only the TP1 and TP2 group sizes (n1,
/// n2), which the LayerKey fixes: one walk per (block, fabric) then serves
/// every candidate of the block. A block with DP-group rows (the MoE
/// AllToAll) prices them at nd, which candidates sharing the block (nd at
/// or above the expert count) do not share, so its walk stays per
/// candidate.
inline bool floor_walk_per_block(const BatchedSignature& bat) {
  constexpr unsigned kTpGroups =
      (1u << static_cast<unsigned>(ops::CommGroup::TP1)) |
      (1u << static_cast<unsigned>(ops::CommGroup::TP2));
  return (bat.comm_groups_mask & ~kTpGroups) == 0;
}

/// placement_floor's tail: the stage times, tp_comm, bubble and the total
/// from a walk and the candidate's finished SystemTiming (only its scalar
/// fields are read). Same precondition as placement_floor: the walk was
/// taken under validated EvalOptions.
double finish_placement_floor(const FloorWalk& walk, const SignatureTail& sig,
                              const BatchedSignature& bat,
                              const SystemTiming& base,
                              const parallel::ParallelConfig& cfg);

}  // namespace tfpe::core
