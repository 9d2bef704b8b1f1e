#include "search/codesign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
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

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

constexpr const char* kShapePrunedReason =
    "shape pruned: architecture compute floor above cross-shape incumbent";

/// Candidate identity inside one enumerated list: the parallelization /
/// schedule fields expand_candidates varies (placements are searched later
/// and enumerated lists carry unit placements).
bool same_candidate(const parallel::ParallelConfig& a,
                    const parallel::ParallelConfig& b) {
  return a.strategy == b.strategy && a.n1 == b.n1 && a.n2 == b.n2 &&
         a.np == b.np && a.nd == b.nd && a.microbatches == b.microbatches &&
         a.nb == b.nb && a.interleave == b.interleave &&
         a.ring_attention == b.ring_attention && a.zero == b.zero;
}

/// Index of `cfg` in `configs`, kNoSeed when absent — the by-value warm-
/// seed lookup (candidate indices are not comparable across shapes).
std::size_t find_candidate(const std::vector<parallel::ParallelConfig>& configs,
                           const parallel::ParallelConfig& cfg) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (same_candidate(configs[i], cfg)) return i;
  }
  return kNoSeed;
}

}  // namespace

ShapeKey shape_key(const model::TransformerConfig& mdl, std::int64_t n_gpus) {
  ShapeKey k;
  k.seq_len = mdl.seq_len;
  k.embed = mdl.embed;
  k.heads = mdl.heads;
  k.depth = mdl.depth;
  k.hidden = mdl.hidden;
  k.kv_heads = mdl.kv_heads;
  k.vocab = mdl.vocab;
  k.window = mdl.window;
  k.moe_experts = mdl.moe_experts;
  k.moe_top_k = mdl.moe_top_k;
  k.attention = mdl.attention;
  k.n_gpus = n_gpus;
  return k;
}

std::size_t CandidateCache::KeyHash::operator()(const ShapeKey& k) const {
  std::size_t h = static_cast<std::size_t>(k.attention);
  h = hash_combine(h, static_cast<std::size_t>(k.seq_len));
  h = hash_combine(h, static_cast<std::size_t>(k.embed));
  h = hash_combine(h, static_cast<std::size_t>(k.heads));
  h = hash_combine(h, static_cast<std::size_t>(k.depth));
  h = hash_combine(h, static_cast<std::size_t>(k.hidden));
  h = hash_combine(h, static_cast<std::size_t>(k.kv_heads));
  h = hash_combine(h, static_cast<std::size_t>(k.vocab));
  h = hash_combine(h, static_cast<std::size_t>(k.window));
  h = hash_combine(h, static_cast<std::size_t>(k.moe_experts));
  h = hash_combine(h, static_cast<std::size_t>(k.moe_top_k));
  h = hash_combine(h, static_cast<std::size_t>(k.n_gpus));
  return h;
}

std::shared_ptr<const std::vector<parallel::ParallelConfig>>
CandidateCache::get(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys, const SearchOptions& opts) {
  const std::int64_t scale = opts.n_gpus > 0 ? opts.n_gpus : sys.n_gpus;
  return memo_.get(shape_key(mdl, scale), [&] {
    auto configs = expand_candidates(mdl, sys, opts);
    candidates_.fetch_add(configs.size(), std::memory_order_relaxed);
    return configs;
  });
}

CodesignResult run_codesign(const std::vector<model::TransformerConfig>& shapes,
                            const std::vector<hw::SystemConfig>& points,
                            const CodesignOptions& opts) {
  opts.sweep.search.eval.validate();
  if (opts.sweep.search.top_k != 0) {
    throw std::invalid_argument(
        "run_sweep/run_codesign: search.top_k is not supported (the scan "
        "keeps only the per-point optimum) — rank candidates with "
        "find_optimal instead");
  }
  if (opts.sweep.search.threads != 0) {
    throw std::invalid_argument(
        "run_sweep/run_codesign: search.threads is not supported (the scan "
        "owns the thread budget) — set SweepOptions::threads instead");
  }

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
  std::vector<std::int64_t> scale_of(np);
  for (std::size_t p = 0; p < np; ++p) {
    scale_of[p] =
        opts.sweep.search.n_gpus > 0 ? opts.sweep.search.n_gpus
                                     : points[p].n_gpus;
  }

  // Chains: points sharing (GPU type, scale), in input order — the axis
  // along which a hardware_grid varies only the fabric, so within one
  // shape a predecessor's optimal candidate is a plausible (and index-
  // compatible, since the candidate list is shared) seed for its
  // successor, and the ChainContext streams along it.
  std::map<std::pair<std::string, std::int64_t>, std::size_t> chain_ids;
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t p = 0; p < np; ++p) {
    const auto key = std::make_pair(points[p].gpu.name, scale_of[p]);
    const auto [it, inserted] = chain_ids.try_emplace(key, chains.size());
    if (inserted) chains.emplace_back();
    chains[it->second].push_back(p);
  }

  // Run-scoped caches (model-keyed or model-free).
  CandidateCache cand_cache;
  PlacementCache placement_cache;
  std::atomic<std::int64_t> enumerate_ns{0};
  std::atomic<std::int64_t> compile_ns{0};
  std::atomic<std::int64_t> time_ns{0};

  // Per-point cross-shape state, updated sequentially between shapes: the
  // last surviving shape's optimal configuration (the cross-shape warm
  // seed, matched by value in the next shape's list).
  std::vector<std::optional<parallel::ParallelConfig>> seed_cfg(np);

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
  for (std::size_t s = 0; s < ns; ++s) {
    const model::TransformerConfig& shape = shapes[s];

    // Architecture-level screen, BEFORE any enumeration for this shape: a
    // floor above an achieved time means no configuration of this shape
    // can win or tie at that point.
    bool any_scanned = false;
    for (std::size_t p = 0; p < np; ++p) {
      if (opts.prune_shapes && out.best[p].best.feasible &&
          core::shape_time_floor(shape, points[p], scale_of[p], b) >
              out.best[p].best.iteration()) {
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

    // Within a chain the points run in input order, threading the warm
    // seed; the leased ScanScratch persists across the chain (and, through
    // the pool, across chains) so the batch kernel allocates only on
    // growth. The ChainContext stays chain-local on purpose: its
    // per-candidate entries are indexed into THIS chain's candidate list
    // and must not leak into the next one.
    const auto run_chain = [&](std::size_t c) {
      util::ObjectPool<ScanScratch>::Lease scratch = scratch_pool.acquire();
      ChainContext ctx;
      std::size_t chain_seed = kNoSeed;
      for (const std::size_t p : chains[c]) {
        if (out.pruned[s][p]) continue;
        const auto enum_t0 = Clock::now();
        const auto configs = cand_cache.get(shape, points[p],
                                            opts.sweep.search);
        enumerate_ns.fetch_add(ns_since(enum_t0), std::memory_order_relaxed);
        std::size_t seed = kNoSeed;
        if (opts.sweep.warm_start) {
          if (seed_cfg[p]) seed = find_candidate(*configs, *seed_cfg[p]);
          if (seed == kNoSeed) seed = chain_seed;
        }
        outcomes[p] = scan_point(scan, points[p], *configs, seed, *scratch,
                                 ctx);
        chain_seed = outcomes[p].best_index;
      }
    };
    if (inline_run) {
      for (std::size_t c = 0; c < chains.size(); ++c) run_chain(c);
    } else {
      util::parallel_for_dynamic(*pool, chains.size(), run_chain);
    }

    // Sequential cross-shape reduction in point order: winners, seeds and
    // the work counters (deterministic — each scanned point was written by
    // exactly the chain that owns it).
    for (std::size_t p = 0; p < np; ++p) {
      if (out.pruned[s][p]) continue;
      PointOutcome& o = outcomes[p];
      ++out.stats.shapes_evaluated;
      out.evaluated[s][p] = o.evaluated;
      out.stats.evaluated += o.evaluated;
      out.stats.bound_pruned += o.bound_pruned;
      out.stats.memory_pruned += o.memory_pruned;
      out.stats.placement_floor_pruned += o.placement_floor_pruned;
      out.stats.batch_calls += o.batch_calls;
      out.stats.batch_placements += o.batch_placements;
      out.stats.signature_reuses += o.signature_reuses;
      if (o.warm_seeded) ++out.stats.warm_seeded;
      if (o.warm_seed_feasible) ++out.stats.warm_seed_feasible;
      out.per_shape[s][p] = std::move(o.best);
      const core::EvalResult& r = out.per_shape[s][p];
      if (r.feasible) {
        ++out.stats.feasible_shape_points;
        seed_cfg[p] = r.cfg;
      }
      if (better_result(r, out.best[p].best)) {
        out.best[p].best = r;
        out.best[p].shape = s;
      }
    }
    out.stats.signature_compiles += caches.tails.builds();
    out.stats.signature_cache_hits += caches.tails.hits();
    out.stats.signature_lowers += caches.blocks.builds();
    out.stats.build_layer_calls += caches.blocks.builds();
    out.stats.layer_cache_hits += caches.blocks.hits();
  }

  for (const auto& w : out.best) {
    if (w.shape != CodesignResult::kNoShape) ++out.stats.feasible_points;
  }
  out.stats.enumerations = cand_cache.builds();
  out.stats.enumeration_hits = cand_cache.hits();
  out.stats.candidates = cand_cache.candidates();
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
