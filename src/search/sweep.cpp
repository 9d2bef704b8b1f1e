#include "search/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "search/point_scan.hpp"
#include "search/search_cache.hpp"
#include "util/object_pool.hpp"
#include "util/thread_pool.hpp"

namespace tfpe::search {

namespace {

using Clock = std::chrono::steady_clock;

/// Candidate list of one GPU scale, enumerated lazily by the first worker
/// that needs it (call_once) so enumeration overlaps the other chains'
/// compile/timing work instead of serializing ahead of the fan-out.
struct ScaleSlot {
  std::once_flag once;
  std::vector<parallel::ParallelConfig> configs;
};

/// Cache + stage-clock storage for one sweep; scan_point reaches it through
/// the non-owning ScanShared view (search/point_scan.hpp).
struct SweepShared {
  LayerCostCache layer_cache;
  PlacementCache placement_cache;
  SignatureCache signature_cache;
  BatchedCache batched_cache;
  std::atomic<std::int64_t> enumerate_ns{0};
  std::atomic<std::int64_t> compile_ns{0};
  std::atomic<std::int64_t> time_ns{0};
};

}  // namespace

SweepResult run_sweep(const model::TransformerConfig& mdl,
                      const std::vector<hw::SystemConfig>& points,
                      const SweepOptions& opts) {
  if (opts.search.top_k != 0) {
    throw std::invalid_argument(
        "run_sweep: search.top_k is not supported (the sweep keeps only the "
        "per-point optimum) — rank candidates with find_optimal instead");
  }
  if (opts.search.threads != 0) {
    throw std::invalid_argument(
        "run_sweep: search.threads is not supported (the sweep owns the "
        "thread budget) — set SweepOptions::threads instead");
  }

  SweepResult out;
  const std::size_t n = points.size();
  out.best.resize(n);
  out.evaluated_per_point.assign(n, 0);
  out.stats.points = n;
  if (n == 0) return out;

  // Candidates depend on the system only through the model shape and the
  // GPU count (never the GPU type or NVS domain), and the model is fixed
  // across this sweep — so one list per distinct scale. The slots are keyed
  // up front (std::map nodes are stable, so workers may read the map
  // concurrently) but filled lazily inside the fan-out.
  std::map<std::int64_t, ScaleSlot> by_scale;
  std::vector<std::int64_t> scale_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    scale_of[i] =
        opts.search.n_gpus > 0 ? opts.search.n_gpus : points[i].n_gpus;
    (void)by_scale[scale_of[i]];
  }

  // Chains: points sharing (GPU type, scale), in input order — the axis
  // along which a hardware_grid varies only the fabric, so a parent's
  // optimal candidate is a plausible (and index-compatible, since the
  // candidate list is shared) seed for its successor.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> chain_ids;
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = std::make_pair(points[i].gpu.name, scale_of[i]);
    const auto [it, inserted] = chain_ids.try_emplace(key, chains.size());
    if (inserted) chains.emplace_back();
    chains[it->second].push_back(i);
  }

  SweepShared sh;
  const ScanShared scan{mdl,
                        opts,
                        sh.layer_cache,
                        sh.placement_cache,
                        sh.signature_cache,
                        sh.batched_cache,
                        sh.compile_ns,
                        sh.time_ns};
  const auto wall_t0 = Clock::now();

  // Stream chains over the workers. Within a chain the points run in input
  // order, threading the warm seed; the leased ScanScratch persists across
  // the whole chain (and, through the pool, across chains) so the batch
  // kernel and the per-point bookkeeping allocate only on growth. The
  // ChainContext stays chain-local on purpose: its per-candidate entries
  // are indexed into THIS chain's candidate list and must not leak into
  // the next one.
  util::ObjectPool<ScanScratch> scratch_pool;
  std::vector<PointOutcome> outcomes(n);
  const auto run_chain = [&](std::size_t c) {
    util::ObjectPool<ScanScratch>::Lease scratch = scratch_pool.acquire();
    ChainContext ctx;
    std::size_t seed = kNoSeed;
    for (const std::size_t i : chains[c]) {
      ScaleSlot& slot = by_scale.find(scale_of[i])->second;
      std::call_once(slot.once, [&] {
        const auto t0 = Clock::now();
        slot.configs = expand_candidates(mdl, points[i], opts.search);
        sh.enumerate_ns.fetch_add(ns_since(t0), std::memory_order_relaxed);
      });
      outcomes[i] = scan_point(scan, points[i], slot.configs,
                               opts.warm_start ? seed : kNoSeed, *scratch,
                               ctx);
      seed = outcomes[i].best_index;
    }
  };
  // One worker (or one chain) runs inline: spawning a pool to feed a
  // single consumer costs more than a small sweep's whole scan, and the
  // counters are thread-invariant either way.
  const unsigned workers =
      opts.threads != 0 ? opts.threads
                        : std::max(1u, std::thread::hardware_concurrency());
  if (workers <= 1 || chains.size() <= 1) {
    for (std::size_t c = 0; c < chains.size(); ++c) run_chain(c);
  } else {
    util::ThreadPool pool(opts.threads);
    util::parallel_for_dynamic(pool, chains.size(), run_chain);
  }
  out.stats.profile.wall_s = static_cast<double>(ns_since(wall_t0)) * 1e-9;

  for (const auto& [scale, slot] : by_scale) {
    (void)scale;
    out.stats.candidates += slot.configs.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.evaluated_per_point[i] = outcomes[i].evaluated;
    out.stats.evaluated += outcomes[i].evaluated;
    out.stats.bound_pruned += outcomes[i].bound_pruned;
    out.stats.memory_pruned += outcomes[i].memory_pruned;
    out.stats.batch_calls += outcomes[i].batch_calls;
    out.stats.batch_placements += outcomes[i].batch_placements;
    out.stats.signature_reuses += outcomes[i].signature_reuses;
    if (outcomes[i].warm_seeded) ++out.stats.warm_seeded;
    if (outcomes[i].warm_seed_feasible) ++out.stats.warm_seed_feasible;
    if (outcomes[i].best.feasible) ++out.stats.feasible_points;
    out.best[i] = std::move(outcomes[i].best);
  }
  out.stats.build_layer_calls = sh.layer_cache.builds();
  out.stats.layer_cache_hits = sh.layer_cache.hits();
  out.stats.placement_sets = sh.placement_cache.builds();
  out.stats.placement_cache_hits = sh.placement_cache.hits();
  out.stats.signature_compiles = sh.signature_cache.compiles();
  out.stats.signature_cache_hits = sh.signature_cache.hits();
  out.stats.signature_lowers = sh.batched_cache.lowers();
  out.stats.batched_cache_hits = sh.batched_cache.hits();
  out.stats.profile.enumerate_s =
      static_cast<double>(sh.enumerate_ns.load()) * 1e-9;
  out.stats.profile.compile_s =
      static_cast<double>(sh.compile_ns.load()) * 1e-9;
  out.stats.profile.time_s = static_cast<double>(sh.time_ns.load()) * 1e-9;
  return out;
}

std::vector<hw::SystemConfig> hardware_grid(
    const std::vector<hw::GpuGeneration>& gens,
    const std::vector<std::int64_t>& nvs_domains, std::int64_t n_gpus) {
  std::vector<hw::SystemConfig> grid;
  grid.reserve(gens.size() * nvs_domains.size());
  for (hw::GpuGeneration gen : gens) {
    for (std::int64_t nvs : nvs_domains) {
      grid.push_back(hw::make_system(gen, nvs, n_gpus));
    }
  }
  return grid;
}

std::vector<hw::SystemConfig> hardware_grid(
    const std::vector<hw::GpuGeneration>& gens,
    const std::vector<std::int64_t>& nvs_domains,
    const std::vector<double>& oversubscriptions, std::int64_t n_gpus,
    std::int64_t leaf_size) {
  std::vector<hw::SystemConfig> grid;
  grid.reserve(gens.size() * nvs_domains.size() * oversubscriptions.size());
  for (hw::GpuGeneration gen : gens) {
    for (std::int64_t nvs : nvs_domains) {
      for (double oversub : oversubscriptions) {
        hw::SystemConfig sys = hw::make_system(gen, nvs, n_gpus);
        if (oversub > 1.0) {
          const std::int64_t leaf =
              std::max(nvs, leaf_size - leaf_size % std::max<std::int64_t>(
                                                        nvs, 1));
          sys.fabric =
              hw::leaf_spine_topology(sys.net, nvs, leaf, n_gpus, oversub);
        }
        grid.push_back(std::move(sys));
      }
    }
  }
  return grid;
}

}  // namespace tfpe::search
