#pragma once
// The per-grid-point candidate scan of the scan driver (run_codesign in
// search/codesign.hpp; run_sweep is its one-shape case): one system's
// sequential, lower-bound-ordered walk of the shape's CandidateTree with an
// achieved-time incumbent, warm seeding from the chain predecessor's
// optimum, and the ChainContext that persists state across the points of
// one chain: per prefix its validity, floor base and compiled leaves; per
// candidate its compiled tail, block and lower-bound base; per block its
// bind half (per GPU roofline) and floor walk (per point). Leaves are read
// from the tree as they are needed (CandidateTree::leaf), never
// materialized as a list.
//
// Scan order. Each valid (n1, n2, np, nd, nb) prefix gets its
// core::prefix_time_floor, finished on the point's fabric from the chain's
// base. The running incumbent starts at the caller's achieved time (the
// point's cross-shape incumbent in run_codesign, else infinity). The warm
// seed, if any, is screened and timed first, against that incumbent. Then a
// PrefixMerge (search/enumerate.hpp, the order find_optimal pops in too)
// pops leaves in (lb, index) order, expanding a prefix only while its floor
// is <= both the running incumbent and the smallest pending lb, and the
// scan stops at the first leaf whose lb is above the incumbent.
//
// Memory floor. A leaf's memory floor is its (m, ring, ZeRO stage) group's
// entry in the space's MemoryFloors: the larger of the analytic
// core::memory_floor and the per-token core::token_memory_floor (its layer
// family built once per shape at local microbatch 1, ShapeCaches::unit,
// scaled by the local microbatch). No memory floor reads the interleave,
// so the group's floor is each of its leaves'. Both are <= the leaf's tail
// total, and the per-token one equals it up to a 1e-9 slack, so a leaf
// over HBM is turned away before its tail or block is built. The table is
// hardware-free and built once per (shape, GPU count) space before the
// shape's chains run; the scan only reads it. find_optimal keeps the
// analytic floor alone, so the scan's memory_pruned exceeds its, and
// evaluated and bound_pruned fall short of its, by the leaves only the
// per-token floor settles; the three sum to the same total.
//
// Exactness. The prefix floor is <= the search_bounds time floor of each
// of its leaves, so the pops are exactly the leaves a full (lb, index) sort
// would visit, in that order, and each is screened as it would be there: a
// leaf whose chain-held tail is over HBM is charged one evaluation, one
// whose memory floor is over HBM is memory-pruned, the rest are bounded.
// The tail check in evaluate stays the exact verdict for the popped ones.
// Two kinds of prefix are settled without expanding them, by one
// classification in the same order of verdicts: the leaves with a
// chain-held tail over HBM (the prefix keeps a list of its compiled
// leaves) as evaluated, the warm seed (already screened) left out, then per
// group the memory floor, the rest as bound_pruned and subtree_pruned.
//   * A prefix whose smallest group floor is over the point's HBM (the
//     memory screen) is settled before the merge starts: every leaf of it
//     is over HBM, so it never enters the merge, its time floor is never
//     finished and none of its leaves is bound_pruned. Expanding it would
//     push no leaf, so the merge pops the same leaves in the same order.
//   * A prefix never expanded has a floor above the final incumbent, so
//     every leaf of it is slower than an achieved time.
// So a leaf gets one verdict whether or not its prefix was expanded, and
// scan_point's best result equals find_optimal's optimum at the same
// point, with or without a warm seed (see codesign.hpp for the argument):
// a memory-pruned leaf is infeasible under every placement.
//
// A finite starting incumbent I is an achieved time too. Every leaf whose
// time is <= I (ties included) has lb <= I and passes the strict, slackened
// placement-floor screen, so it is still popped and timed: when the
// shape's optimum is <= I the best result is still find_optimal's, bit for
// bit. When it is above I the best result is infeasible or above I, and
// the caller must not report it as the shape's optimum (run_codesign cuts
// such a pair).
//
// This is the search layer's internal engine room — run_codesign owns the
// caches, groups points into chains and aggregates PointOutcome counters
// into its stats.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/lower_bounds.hpp"
#include "hw/system.hpp"
#include "search/enumerate.hpp"
#include "search/search_cache.hpp"
#include "search/sweep.hpp"

namespace tfpe::search {

/// Sentinel candidate / prefix index: "no warm seed" / "nothing feasible".
inline constexpr std::size_t kNoSeed = static_cast<std::size_t>(-1);

inline std::int64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One lowered layer of a shape (lower_block), shared by every chain that
/// scans the shape. `id` numbers the shape's blocks densely in build order,
/// so a chain keeps its per-block state in a vector (ChainContext::blocks).
struct ScanBlock {
  core::BatchedSignature bat;
  std::size_t id = 0;
};

/// The per-shape engine caches (they key below the model): blocks per
/// LayerKey, the BlockScalars of each layer family at local microbatch 1
/// (the unit the per-token memory floor scales) and candidate tails per
/// SignatureKey, shared by every grid point and chain of one shape.
struct ShapeCaches {
  ShardedMemo<LayerKey, ScanBlock, LayerKeyHash> blocks;
  ShardedMemo<LayerKey, core::BlockScalars, LayerKeyHash> units;
  ShardedMemo<SignatureKey, core::SignatureTail, SignatureKeyHash> tails;
  std::atomic<std::size_t> block_ids{0};

  /// The unit scalars of cfg's layer family (core::token_memory_floor),
  /// building them on first use. Thread-safe.
  std::shared_ptr<const core::BlockScalars> unit(
      const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
      std::int64_t global_batch) {
    LayerKey key = layer_key(mdl, cfg, global_batch);
    key.local_microbatch = 1;
    return units.get(key, [&] {
      return core::block_scalars(mdl, cfg, parallel::build_layer(mdl, cfg, 1));
    });
  }

  /// cfg's block, lowering it on first use. Thread-safe.
  std::shared_ptr<const ScanBlock> block(const model::TransformerConfig& mdl,
                                         const parallel::ParallelConfig& cfg,
                                         std::int64_t global_batch) {
    return blocks.get(layer_key(mdl, cfg, global_batch), [&] {
      return ScanBlock{lower_block(mdl, cfg, global_batch),
                       block_ids.fetch_add(1, std::memory_order_relaxed)};
    });
  }
};

/// The scan's hardware-free memory screen of one (shape, GPU count)
/// candidate space: per (m, ring, ZeRO stage) group of each prefix
/// (CandidateTree::group_of, group_memory_floors) the larger of
/// core::memory_floor and core::token_memory_floor, and per prefix the
/// smallest of its groups'. run_codesign builds one per space before the
/// shape's chains fan out (charged to the enumerate stage); scan_point only
/// reads it.
class MemoryFloors {
 public:
  /// The floors of every prefix of `tree` for the shape `mdl`; the
  /// per-token floor's unit scalars come from `caches` (ShapeCaches::unit),
  /// which builds them.
  MemoryFloors(const model::TransformerConfig& mdl, const CandidateTree& tree,
               std::int64_t global_batch, const core::EvalOptions& eval,
               ShapeCaches& caches);

  /// Prefix p's group floors, in group order.
  std::span<const double> groups(std::size_t p) const {
    return std::span(floors_).subspan(first_[p], first_[p + 1] - first_[p]);
  }
  /// The floor of leaf `index` of prefix p (its group's).
  double leaf(const CandidateTree& tree, std::size_t p,
              std::size_t index) const {
    return floors_[first_[p] + tree.group_of(tree.prefixes()[p], index)];
  }
  /// True when every leaf of prefix p is over `hbm`: its smallest group
  /// floor is.
  bool over(std::size_t p, Bytes hbm) const {
    return Bytes(prefix_min_[p]) > hbm;
  }

 private:
  std::vector<double> floors_;      ///< every group, prefix by prefix
  std::vector<std::size_t> first_;  ///< each prefix's first group, then end
  std::vector<double> prefix_min_;  ///< per prefix
};

/// Everything scan_point reads and mutates, owned by the caller: the model
/// and engine options the scan is for, the memoization caches (the shape's
/// caches must be per (model, global batch, EvalOptions) tuple — see
/// SignatureKey), and the stage-profile busy counters.
struct ScanShared {
  const model::TransformerConfig& mdl;
  const SweepOptions& opts;
  ShapeCaches& caches;
  PlacementCache& placement_cache;
  std::atomic<std::int64_t>& compile_ns;
  std::atomic<std::int64_t>& time_ns;
};

struct PointOutcome {
  core::EvalResult best;
  /// Candidate index of the optimum in the space's tree and the position of
  /// its prefix in tree.prefixes() — the warm seed handed to the next point
  /// of the chain. kNoSeed when nothing was feasible.
  std::size_t best_index = kNoSeed;
  std::size_t best_prefix = kNoSeed;
  std::size_t evaluated = 0;
  std::size_t bound_pruned = 0;
  std::size_t subtree_pruned = 0;  ///< part of bound_pruned
  std::size_t memory_pruned = 0;
  std::size_t placement_floor_pruned = 0;
  std::size_t batch_calls = 0;
  std::size_t batch_placements = 0;
  /// Candidate visits served by the chain's own already-compiled tail,
  /// with no tail-cache probe at all. find_optimal compiles a tail on
  /// every visit, so hit-rate accounting that only counts probes would
  /// make the same work look like a lower hit rate here —
  /// SweepStats::compile_hit_rate counts these reuses alongside cache
  /// hits.
  std::size_t signature_reuses = 0;
  bool warm_seeded = false;
  /// The seed beat the starting incumbent.
  bool warm_seed_feasible = false;
};

/// Per-candidate state carried across the points of one chain (fixed GPU
/// type and scale; see ChainContext).
struct ChainEntry {
  /// Hardware-invariant: the compiled tail and the block are valid for
  /// every point of the sweep, not just the chain. The block is looked up
  /// when the candidate first needs it (a tail-cache hit does not).
  std::shared_ptr<const core::SignatureTail> tail;
  std::shared_ptr<const ScanBlock> block;
  /// Fabric-independent half of the candidate's lower bounds; the screen
  /// finishes it with the current point's fabric.
  core::SearchBoundsBase lb_base;
  std::uint8_t lb_ready = 0;
};

/// Per-prefix state carried across the points of one chain: its validity
/// (it reads only the cluster size), its floor base (it reads only the GPU
/// roofline) and the leaves that hold a chain tail. Its memory floors are
/// the space's (MemoryFloors), not the chain's.
struct ChainPrefix {
  core::PrefixFloorBase floor_base;
  /// Leaves of the prefix whose ChainEntry::tail is set, in compile order:
  /// the ones a settled prefix must check against HBM.
  std::vector<std::size_t> compiled;
  std::int64_t screen_n_gpus = -1;  ///< cluster size `valid` is for
  std::uint8_t valid = 0;
  std::uint8_t floor_ready = 0;
};

/// Per-block state carried across the points of one chain, indexed by
/// ScanBlock::id: the bind half (it reads only the GPU roofline, the host
/// link and the options) and the floor walk (it also reads the fabric, so
/// it is redone per point).
struct ChainBlock {
  core::BlockTiming part;    ///< valid when `bound`
  core::CommWalk walk;      ///< valid when walk_point is the chain's point
  std::size_t walk_point = kNoSeed;
  std::uint8_t bound = 0;
};

/// Chain context: state reused across the points of one chain. The tail
/// (and the capacity verdict derived from it) never changes; a block's
/// bind and a prefix's floor base change only with the GPU roofline; a
/// prefix's validity reads only the GPU count. Each is cached with the
/// stamp that invalidates it.
struct ChainContext {
  std::vector<ChainEntry> entries;    ///< per candidate index
  std::vector<ChainPrefix> prefixes;  ///< per CandidateTree prefix
  std::vector<ChainBlock> blocks;
  hw::Topology fabric;          ///< current point's fabric, resolved once
  /// Pricer bound to `fabric`, rebound once per point AFTER the fabric is
  /// resolved (it holds a pointer to `fabric`, whose address is stable for
  /// the context's lifetime). It performs all collective pricing, so the
  /// candidates' SystemTimings never need their own fabric copy.
  comm::FabricPricer pricer;
  std::size_t point = kNoSeed;  ///< ordinal of the current point
  /// Roofline identity guard: chains key on gpu.name, but with_memory /
  /// with_compute grids can reuse a name with different rates — detect that
  /// and drop the bound state (the tails and blocks stay; they are
  /// hardware-invariant).
  hw::GpuSpec gpu;
  BytesPerSec host_bw;
};

/// Per-worker scratch bundle for scan_point: the batch-kernel scratch, the
/// timing buffer, and scan_point's own bookkeeping. Reset capacity-
/// preservingly at the top of every call, so a warm bundle makes the whole
/// scan allocation-free. Callers lease bundles from a util::ObjectPool so
/// the warmth survives across chain tasks (and, in the co-design engine,
/// across shapes) instead of dying with each worker lambda.
struct ScanScratch {
  core::BatchScratch batch;
  std::vector<core::PlacementTiming> timings;
  core::SystemTiming base;  ///< the candidate's bind, finished per visit
  /// The point's feasible results as (index, prefix, result).
  std::vector<std::tuple<std::size_t, std::size_t, core::EvalResult>> feasible;
  PrefixMerge merge;
  std::vector<std::size_t> settled;  ///< per (m, ring, ZeRO) of a prefix
};

/// One grid point: walk the shape's candidate tree cheapest-lower-bound-
/// first with a point-local incumbent (see the header for the order and
/// why it is exact), screening its prefixes and leaves on `floors` (the
/// tree's MemoryFloors) — optionally seeded by re-timing leaf `seed_index`
/// of prefix `seed_prefix` (the chain parent's optimum) first. The incumbent
/// starts at `incumbent`, an achieved iteration time or infinity; the seed
/// counts as warm_seed_feasible only when it beats that start. The running
/// incumbent cuts off the rest of the walk and is also the cutoff of the
/// placement-floor screen (see scan_placements_batch). The best result is
/// find_optimal's optimum whenever that optimum is <= `incumbent`;
/// otherwise it is infeasible or slower than `incumbent`. Sequential on
/// purpose: the callers' parallelism is across chains, and a sequential
/// scan both updates the incumbent after every single candidate (tighter
/// than find_optimal's round barriers) and keeps the per-point counters
/// independent of the worker count.
PointOutcome scan_point(const ScanShared& sh, const hw::SystemConfig& sys,
                        const CandidateTree& tree,
                        const MemoryFloors& floors, std::size_t seed_index,
                        std::size_t seed_prefix, double incumbent,
                        ScanScratch& scratch, ChainContext& chain);

}  // namespace tfpe::search
