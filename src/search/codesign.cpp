#include "search/codesign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/lower_bounds.hpp"
#include "search/point_scan.hpp"
#include "util/object_pool.hpp"
#include "util/thread_pool.hpp"

namespace tfpe::search {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kShapePrunedReason =
    "shape pruned: architecture compute floor above cross-shape incumbent";
constexpr const char* kShapeCutReason =
    "shape pruned: no configuration at or below the cross-shape incumbent";

}  // namespace

CodesignResult run_codesign(const std::vector<model::TransformerConfig>& shapes,
                            const std::vector<hw::SystemConfig>& points,
                            const CodesignOptions& opts) {
  opts.sweep.search.eval.validate();

  CodesignResult out;
  const std::size_t ns = shapes.size();
  const std::size_t np = points.size();
  out.shapes = shapes;
  out.best.resize(np);
  out.per_shape.assign(ns, std::vector<core::EvalResult>(np));
  out.pruned.assign(ns, std::vector<std::uint8_t>(np, 0));
  out.evaluated.assign(ns, std::vector<std::size_t>(np, 0));
  out.stats.shapes = ns;
  out.stats.points = np;
  for (std::size_t s = 0; s < ns; ++s) {
    for (std::size_t p = 0; p < np; ++p) {
      out.per_shape[s][p].reason = "no feasible configuration";
    }
  }
  for (auto& w : out.best) w.best.reason = "no feasible configuration";
  if (ns == 0 || np == 0) return out;
  const auto wall_t0 = Clock::now();

  const std::int64_t b = opts.sweep.search.global_batch;

  // Chains: points sharing (GPU type, scale), in input order — the axis
  // along which a hardware_grid varies only the fabric, so within one
  // shape a predecessor's optimal candidate is a plausible (and index-
  // compatible, since the candidate tree is shared) seed for its
  // successor, and the ChainContext streams along it.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> chain_ids;
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t p = 0; p < np; ++p) {
    const auto key = std::make_pair(points[p].gpu.name, points[p].n_gpus);
    const auto [it, inserted] = chain_ids.try_emplace(key, chains.size());
    if (inserted) chains.emplace_back();
    chains[it->second].push_back(p);
  }

  // Run-scoped cache (model-free).
  PlacementCache placement_cache;
  std::atomic<std::int64_t> enumerate_ns{0};
  std::atomic<std::int64_t> compile_ns{0};
  std::atomic<std::int64_t> time_ns{0};

  // One pool of workers and one pool of scratch bundles for the WHOLE
  // product loop: the leased ScanScratch carries its warm capacity across
  // shapes, not just across chains. With a single worker (or a single
  // chain) the chains run inline — spawning a pool to feed one consumer
  // costs more than a small grid's whole scan, and the counters are
  // thread-invariant either way.
  const unsigned workers =
      opts.sweep.threads != 0
          ? opts.sweep.threads
          : std::max(1u, std::thread::hardware_concurrency());
  const bool inline_run = workers <= 1 || chains.size() <= 1;
  std::unique_ptr<util::ThreadPool> pool;
  if (!inline_run) pool = std::make_unique<util::ThreadPool>(opts.sweep.threads);
  util::ObjectPool<ScanScratch> scratch_pool;
  std::vector<PointOutcome> outcomes(np);
  // Per point, the achieved time the current shape's scan starts from.
  std::vector<double> incumbent(np);
  for (std::size_t s = 0; s < ns; ++s) {
    const model::TransformerConfig& shape = shapes[s];

    // Architecture-level screen, BEFORE any enumeration for this shape: a
    // floor above an achieved time means no configuration of this shape
    // can win or tie at that point. A surviving pair's scan starts at the
    // same achieved time.
    bool any_scanned = false;
    for (std::size_t p = 0; p < np; ++p) {
      incumbent[p] = opts.prune_shapes && out.best[p].best.feasible
                         ? out.best[p].best.iteration()
                         : std::numeric_limits<double>::infinity();
      if (core::shape_time_floor(shape, points[p], points[p].n_gpus, b) >
          incumbent[p]) {
        out.pruned[s][p] = 1;
        out.per_shape[s][p].reason = kShapePrunedReason;
        ++out.stats.shapes_pruned;
      } else {
        any_scanned = true;
      }
    }
    if (!any_scanned) continue;

    // Block and tail caches key below the model: one pair per shape,
    // shared by all of its grid points (see ShapeCaches).
    ShapeCaches caches;
    const ScanShared scan{shape, opts.sweep, caches, placement_cache,
                          compile_ns, time_ns};

    // The candidate tree of each GPU count the shape is scanned at, with
    // its memory floors, built before the chains fan out: the chains only
    // read them. Both are the enumerate stage.
    const auto enum_t0 = Clock::now();
    std::map<std::int64_t, std::pair<CandidateTree, MemoryFloors>> spaces;
    for (std::size_t p = 0; p < np; ++p) {
      if (out.pruned[s][p] || spaces.count(points[p].n_gpus)) continue;
      CandidateTree tree(shape, points[p].n_gpus, opts.sweep.search);
      ++out.stats.enumerations;
      out.stats.candidates += tree.size();
      MemoryFloors floors(shape, tree, b, opts.sweep.search.eval, caches);
      spaces.emplace(points[p].n_gpus,
                     std::pair(std::move(tree), std::move(floors)));
    }
    enumerate_ns.fetch_add(ns_since(enum_t0), std::memory_order_relaxed);

    // Within a chain the points run in input order, threading the warm
    // seed; the leased ScanScratch persists across the chain (and, through
    // the pool, across chains) so the batch kernel allocates only on
    // growth. The ChainContext stays chain-local on purpose: its
    // per-candidate entries are indexed into THIS chain's candidate space
    // and must not leak into the next one.
    const auto run_chain = [&](std::size_t c) {
      const auto it = spaces.find(points[chains[c].front()].n_gpus);
      if (it == spaces.end()) return;  // every point at this scale pruned
      const auto& [tree, floors] = it->second;
      util::ObjectPool<ScanScratch>::Lease scratch = scratch_pool.acquire();
      ChainContext ctx;
      std::size_t seed = kNoSeed;
      std::size_t seed_prefix = kNoSeed;
      for (const std::size_t p : chains[c]) {
        if (out.pruned[s][p]) continue;
        outcomes[p] = scan_point(scan, points[p], tree, floors, seed,
                                 seed_prefix, incumbent[p], *scratch, ctx);
        if (opts.sweep.warm_start) {
          seed = outcomes[p].best_index;
          seed_prefix = outcomes[p].best_prefix;
        }
      }
    };
    if (inline_run) {
      for (std::size_t c = 0; c < chains.size(); ++c) run_chain(c);
    } else {
      util::parallel_for_dynamic(*pool, chains.size(), run_chain);
    }

    // Sequential cross-shape reduction in point order: winners and the work
    // counters (deterministic — each scanned point was written by
    // exactly the chain that owns it).
    for (std::size_t p = 0; p < np; ++p) {
      if (out.pruned[s][p]) continue;
      PointOutcome& o = outcomes[p];
      ++out.stats.shapes_evaluated;
      out.evaluated[s][p] = o.evaluated;
      out.stats.evaluated += o.evaluated;
      out.stats.bound_pruned += o.bound_pruned;
      out.stats.subtree_pruned += o.subtree_pruned;
      out.stats.memory_pruned += o.memory_pruned;
      out.stats.placement_floor_pruned += o.placement_floor_pruned;
      out.stats.batch_calls += o.batch_calls;
      out.stats.batch_placements += o.batch_placements;
      out.stats.signature_reuses += o.signature_reuses;
      if (o.warm_seeded) ++out.stats.warm_seeded;
      if (o.warm_seed_feasible) ++out.stats.warm_seed_feasible;
      // Cut: nothing at or below the incumbent, so the scan's best is not
      // the shape's optimum and cannot win or tie. Its work stays charged.
      if (incumbent[p] < std::numeric_limits<double>::infinity() &&
          (!o.best.feasible || o.best.iteration() > incumbent[p])) {
        out.pruned[s][p] = 2;
        out.per_shape[s][p].reason = kShapeCutReason;
        ++out.stats.shapes_cut;
        continue;
      }
      out.per_shape[s][p] = std::move(o.best);
      const core::EvalResult& r = out.per_shape[s][p];
      if (r.feasible) ++out.stats.feasible_shape_points;
      if (better_result(r, out.best[p].best)) {
        out.best[p].best = r;
        out.best[p].shape = s;
      }
    }
    out.stats.signature_compiles += caches.tails.builds();
    out.stats.signature_cache_hits += caches.tails.hits();
    out.stats.signature_lowers += caches.blocks.builds();
    out.stats.build_layer_calls +=
        caches.blocks.builds() + caches.units.builds();
    out.stats.layer_cache_hits += caches.blocks.hits();
  }

  for (const auto& w : out.best) {
    if (w.shape != CodesignResult::kNoShape) ++out.stats.feasible_points;
  }
  out.stats.placement_sets = placement_cache.builds();
  out.stats.placement_cache_hits = placement_cache.hits();
  out.stats.profile.wall_s = static_cast<double>(ns_since(wall_t0)) * 1e-9;
  out.stats.profile.enumerate_s =
      static_cast<double>(enumerate_ns.load()) * 1e-9;
  out.stats.profile.compile_s = static_cast<double>(compile_ns.load()) * 1e-9;
  out.stats.profile.time_s = static_cast<double>(time_ns.load()) * 1e-9;
  return out;
}

}  // namespace tfpe::search
