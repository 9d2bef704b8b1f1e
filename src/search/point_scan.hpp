#pragma once
// The per-grid-point candidate scan of the scan driver (run_codesign in
// search/codesign.hpp; run_sweep is its one-shape case): one system's
// sequential, lower-bound-ordered scan of a candidate list with an
// achieved-time incumbent, warm seeding, and the ChainContext that
// persists per-candidate state (compiled signature, SoA lowering, bound
// timing with fabric restamp, screen and lower-bound caches) across the
// points of one chain.
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

/// Everything scan_point reads and mutates, owned by the caller: the model
/// and engine options the scan is for, the memoization caches (signature /
/// batched caches must be paired per (model, global batch, EvalOptions)
/// tuple — see SignatureCache), and the stage-profile busy counters.
struct ScanShared {
  const model::TransformerConfig& mdl;
  const SweepOptions& opts;
  LayerCostCache& layer_cache;
  PlacementCache& placement_cache;
  SignatureCache& signature_cache;
  BatchedCache& batched_cache;
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
  /// Candidate visits served by the chain's own already-compiled signature,
  /// with no SignatureCache probe at all. find_optimal probes the cache on
  /// every visit (each probe a hit or a compile), so hit-rate accounting
  /// that only counts probes would make the same work look like a lower
  /// hit rate here — SweepStats::compile_hit_rate counts these reuses
  /// alongside cache hits.
  std::size_t signature_reuses = 0;
  bool warm_seeded = false;
  bool warm_seed_feasible = false;
};

/// Per-candidate state carried across the points of one chain (fixed GPU
/// type and scale; see ChainContext).
struct ChainEntry {
  /// Hardware-invariant: the compiled signature and its SoA lowering are
  /// valid for every point of the sweep, not just the chain.
  std::shared_ptr<const core::CostSignature> sig;
  std::shared_ptr<const core::BatchedSignature> bat;
  /// Bound timing; valid when `bound`. Everything in it except `.fabric`
  /// reads only the GPU roofline. On the placement-search path collectives
  /// are priced through the chain's FabricPricer and `.fabric` is never
  /// read (bound with capture_fabric = false, no restamp); the
  /// time_signature path still restamps the current point's fabric
  /// instead of re-binding.
  core::SystemTiming base;
  std::size_t fabric_point = kNoSeed;  ///< chain point whose fabric base has
  /// Fabric-independent half of the candidate's lower bounds; the screen
  /// finishes it with the current point's fabric.
  core::SearchBoundsBase lb_base;
  std::int64_t screen_n_gpus = -1;     ///< cluster size the verdict is for
  std::uint8_t screened = 0;           ///< 0 unknown, 1 valid, 2 invalid
  std::uint8_t bound = 0;
  std::uint8_t lb_ready = 0;
};

/// Chain context: candidate state reused across the points of one chain.
/// The signature (and capacity verdict derived from it) never changes; the
/// bound SystemTiming changes only through the fabric; the validity screen
/// of a unit-placement candidate reads only the GPU count. Each is cached
/// with the stamp that invalidates it.
struct ChainContext {
  std::vector<ChainEntry> entries;
  hw::Topology fabric;          ///< current point's fabric, resolved once
  /// Pricer bound to `fabric`, rebound once per point AFTER the fabric is
  /// resolved (it holds a pointer to `fabric`, whose address is stable for
  /// the context's lifetime). On the placement-search path it performs all
  /// collective pricing, so the per-candidate SystemTiming never needs its
  /// own fabric copy — bind_system_batched runs with capture_fabric =
  /// false and the per-point restamp disappears.
  comm::FabricPricer pricer;
  std::size_t point = kNoSeed;  ///< ordinal of the current point
  /// Roofline identity guard: chains key on gpu.name, but with_memory /
  /// with_compute grids can reuse a name with different rates — detect that
  /// and drop the bound state (the signatures stay; they are
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
