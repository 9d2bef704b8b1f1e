#pragma once
// The per-grid-point candidate scan of the scan driver (run_codesign in
// search/codesign.hpp; run_sweep is its one-shape case): one system's
// sequential, lower-bound-ordered scan of a candidate list with an
// achieved-time incumbent, warm seeding, and the ChainContext that
// persists state across the points of one chain: per candidate its
// compiled tail, block and screen / lower-bound caches; per block its bind
// half (per GPU roofline) and floor walk (per point).
//
// This is the search layer's internal engine room — run_codesign owns the
// caches, groups points into chains and aggregates PointOutcome counters
// into its stats. Everything here preserves the bitwise contract:
// scan_point's best result equals find_optimal's optimum at the same
// point, with or without a warm seed and pruning (see codesign.hpp for the
// argument).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/lower_bounds.hpp"
#include "hw/system.hpp"
#include "search/search_cache.hpp"
#include "search/sweep.hpp"

namespace tfpe::search {

/// Sentinel candidate index: "no warm seed" / "nothing feasible".
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
/// LayerKey and candidate tails per SignatureKey, shared by every grid
/// point and chain of one shape.
struct ShapeCaches {
  ShardedMemo<LayerKey, ScanBlock, LayerKeyHash> blocks;
  ShardedMemo<SignatureKey, core::SignatureTail, SignatureKeyHash> tails;
  std::atomic<std::size_t> block_ids{0};

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
  /// Candidate index (into the scale's shared list) of the optimum — the
  /// warm seed handed to the next point of the chain. kNoSeed when nothing
  /// was feasible.
  std::size_t best_index = kNoSeed;
  std::size_t evaluated = 0;
  std::size_t bound_pruned = 0;
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
  std::int64_t screen_n_gpus = -1;     ///< cluster size the verdict is for
  std::uint8_t screened = 0;           ///< 0 unknown, 1 valid, 2 invalid
  std::uint8_t lb_ready = 0;
};

/// Per-block state carried across the points of one chain, indexed by
/// ScanBlock::id: the bind half (it reads only the GPU roofline, the host
/// link and the options) and the floor walk (it also reads the fabric, so
/// it is redone per point).
struct ChainBlock {
  core::BlockTiming part;    ///< valid when `bound`
  core::FloorWalk walk;      ///< valid when walk_point is the chain's point
  std::size_t walk_point = kNoSeed;
  std::uint8_t bound = 0;
};

/// Chain context: state reused across the points of one chain. The tail
/// (and the capacity verdict derived from it) never changes; a block's
/// bind changes only with the GPU roofline; the validity screen of a
/// unit-placement candidate reads only the GPU count. Each is cached with
/// the stamp that invalidates it.
struct ChainContext {
  std::vector<ChainEntry> entries;
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
/// timing buffer, and scan_point's own per-candidate bookkeeping vectors.
/// Reset capacity-preservingly at the top of every call, so a warm bundle
/// makes the whole candidate scan allocation-free. Callers lease bundles
/// from a util::ObjectPool so the warmth survives across chain tasks (and,
/// in the co-design engine, across shapes) instead of dying with each
/// worker lambda.
struct ScanScratch {
  core::BatchScratch batch;
  std::vector<core::PlacementTiming> timings;
  core::SystemTiming base;  ///< the candidate's bind, finished per visit
  // scan_point-internal per-candidate state (sized to the candidate list).
  std::vector<std::pair<std::size_t, core::EvalResult>> feasible;
  std::vector<double> lb;
  std::vector<char> pending;
  std::vector<char> done;
  std::vector<std::size_t> order;
};

/// One grid point: scan the shared candidate list sequentially,
/// cheapest-lower-bound-first with a point-local incumbent — optionally
/// seeded by re-timing the chain parent's optimal candidate first. With
/// pruning on, the running incumbent is also the cutoff of the
/// placement-floor screen (see scan_placements_batch).
/// Sequential on purpose: the callers' parallelism is across chains, and a
/// sequential scan both updates the incumbent after every single candidate
/// (tighter than find_optimal's round barriers) and keeps the per-point
/// counters independent of the worker count.
PointOutcome scan_point(const ScanShared& sh, const hw::SystemConfig& sys,
                        const std::vector<parallel::ParallelConfig>& configs,
                        std::size_t seed_index, ScanScratch& scratch,
                        ChainContext& chain);

}  // namespace tfpe::search
