#include "search/search.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>

#include "core/lower_bounds.hpp"
#include "parallel/layer_builder.hpp"
#include "search/search_cache.hpp"
#include "util/object_pool.hpp"
#include "util/thread_pool.hpp"

namespace tfpe::search {

bool better_result(const core::EvalResult& a, const core::EvalResult& b) {
  if (!a.feasible) return false;
  if (!b.feasible) return true;
  if (a.iteration() != b.iteration()) return a.iteration() < b.iteration();
  return a.mem.total() < b.mem.total();
}

bool same_optimum(const core::EvalResult& a, const core::EvalResult& b) {
  if (a.feasible != b.feasible) return false;
  if (!a.feasible) return true;
  return a.cfg.describe() == b.cfg.describe() &&
         a.iteration() == b.iteration() &&
         a.mem.total().value() == b.mem.total().value();
}

void pack_placement(parallel::ParallelConfig& cfg, std::int64_t nvs_domain) {
  auto largest_divisor_leq = [](std::int64_t n, std::int64_t cap) {
    std::int64_t best = 1;
    for (std::int64_t d = 1; d * d <= n; ++d) {
      if (n % d) continue;
      if (d <= cap) best = std::max(best, d);
      if (n / d <= cap) best = std::max(best, n / d);
    }
    return best;
  };
  std::int64_t budget = nvs_domain;
  cfg.nvs1 = largest_divisor_leq(cfg.n1, budget);
  budget /= cfg.nvs1;
  cfg.nvs2 = largest_divisor_leq(cfg.n2, budget);
  budget /= cfg.nvs2;
  cfg.nvsp = largest_divisor_leq(cfg.np, budget);
  budget /= cfg.nvsp;
  cfg.nvsd = largest_divisor_leq(cfg.nd, budget);
}

core::EvalResult scan_placements_signature(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::ParallelConfig cfg, std::int64_t global_batch,
    const core::CostSignature& sig, const core::SystemTiming& base,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const core::EvalOptions& eval, std::size_t& evals,
    bool stop_after_infeasible) {
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> timings;
  return scan_placements_batch(mdl, sys, cfg, global_batch, sig,
                               core::lower_batched(sig), base, placements,
                               eval, evals, stop_after_infeasible, scratch,
                               timings);
}

namespace {

/// Relative margin of the placement-floor screen: a candidate is screened
/// only when floor * (1 - kPlacementFloorSlack) > cutoff. The floor and the
/// priced time sum the same terms in different floating-point groupings
/// (one collective floor per pricing row against one priced cell per
/// placement), so a floor that is mathematically <= the time could still
/// round a few ulps above it; the margin keeps such a candidate timed.
constexpr double kPlacementFloorSlack = 1e-9;

}  // namespace

core::EvalResult scan_placements_batch(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::ParallelConfig cfg, std::int64_t global_batch,
    const core::SignatureTail& sig, const core::BatchedSignature& bat,
    const core::SystemTiming& base,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const core::EvalOptions& eval, std::size_t& evals,
    bool stop_after_infeasible, core::BatchScratch& scratch,
    std::vector<core::PlacementTiming>& timings,
    const comm::FabricPricer* pricer, bool prevalidated, double floor,
    double cutoff, bool* screened) {
  if (screened) *screened = false;
  timings.clear();
  core::EvalResult res;
  if (placements.empty()) {
    res.cfg = cfg;
    res.reason = "no valid placement";
    return res;
  }
  const auto apply = [&](std::size_t idx) {
    cfg.nvs1 = placements[idx][0];
    cfg.nvs2 = placements[idx][1];
    cfg.nvsp = placements[idx][2];
    cfg.nvsd = placements[idx][3];
  };
  // A timed placement's result: every field core::evaluate reports for it
  // (the kernel is pure, and validity and capacity are decided here).
  const auto materialize = [&](const core::PlacementTiming& pt) {
    res.cfg = cfg;
    res.t_fwd_micro = pt.t_fwd_stage.value();
    res.t_bwd_micro = pt.t_bwd_stage.value();
    res.time = pt.time;
    res.mem = sig.mem;
  };

  // Feasibility is placement-invariant over an enumerate_placements list:
  // every tuple satisfies the nvs divisibility + domain constraints by
  // construction, and validity and HBM capacity do not read the placement
  // fields. So it is decided once and the kernel never times a doomed set;
  // an infeasible set reports its first placement under
  // stop_after_infeasible and its last otherwise, as a per-placement scan
  // of core::evaluate would. A prevalidated caller has already decided
  // both verdicts (valid, fits), so the probe is skipped, not merely
  // predicted false. An over-HBM candidate still reports the kept
  // placement's timing, as the evaluator does, from a one-placement kernel
  // call.
  if (!prevalidated) {
    apply(0);
    const auto invalid = cfg.invalid_reason(mdl, sys, global_batch);
    const bool over_capacity =
        !invalid && sig.mem.total() > sys.gpu.hbm_capacity;
    if (invalid || over_capacity) {
      evals += stop_after_infeasible ? 1 : placements.size();
      const std::size_t kept =
          stop_after_infeasible ? 0 : placements.size() - 1;
      apply(kept);
      if (invalid) {
        // The kept placement's own reason, as the evaluator reports it.
        res.cfg = cfg;
        res.reason = cfg.invalid_reason(mdl, sys, global_batch).value_or(
            *invalid);
        return res;
      }
      core::time_placements_batch(sig, bat, base, sys, cfg, {placements[kept]},
                                  eval, timings, &scratch, pricer);
      materialize(timings.front());
      res.reason = "exceeds HBM capacity";
      return res;
    }
  }

  // Placement-floor screen: a candidate whose floor is above the cutoff is
  // slower than it under every placement, so it is settled without timing.
  // Its placements stay charged to `evals`, exactly as if they were timed.
  if (floor * (1.0 - kPlacementFloorSlack) > cutoff) {
    evals += placements.size();
    if (screened) *screened = true;
    apply(0);
    res.cfg = cfg;
    res.mem = sig.mem;
    res.reason = "pruned: placement floor above incumbent";
    return res;
  }

  core::time_placements_batch(sig, bat, base, sys, cfg, placements, eval,
                              timings, &scratch, pricer);
  evals += placements.size();

  // All placements feasible: argmin of the breakdown total, first index
  // winning ties — exactly better_result's ordering, since memory is
  // placement-invariant. The timings are bitwise the evaluator's, so this
  // lands on the placement a per-placement core::evaluate scan would pick.
  std::size_t best_idx = 0;
  double best_total = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const double total = timings[i].time.total();
    if (total < best_total) {
      best_total = total;
      best_idx = i;
    }
  }
  apply(best_idx);
  materialize(timings[best_idx]);
  res.feasible = true;
  return res;
}

namespace {

/// The exhaustive reference engine's placement scan: one full
/// evaluate_with_layer per placement. Kept deliberately on the oracle so
/// the pruned/exhaustive equivalence tests compare the two-phase pipeline
/// against an independent evaluation, not against itself.
core::EvalResult scan_placements(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::ParallelConfig cfg, std::int64_t global_batch,
    const parallel::LayerCost& layer,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const core::EvalOptions& eval, std::size_t& evals,
    bool stop_after_infeasible) {
  core::EvalResult best;
  best.cfg = cfg;
  best.reason = "no valid placement";
  for (const auto& pl : placements) {
    cfg.nvs1 = pl[0];
    cfg.nvs2 = pl[1];
    cfg.nvsp = pl[2];
    cfg.nvsd = pl[3];
    core::EvalResult r =
        core::evaluate_with_layer(mdl, sys, cfg, global_batch, layer, eval);
    ++evals;
    if (better_result(r, best)) best = r;
    if (!r.feasible) {
      if (!best.feasible) best = r;  // keep a concrete reason
      if (stop_after_infeasible) break;
    }
  }
  return best;
}

}  // namespace

// Expands the enumerated parallelizations by the extension axes
// (interleave chunks, ZeRO stage, ring attention).
std::vector<parallel::ParallelConfig> expand_candidates(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const SearchOptions& opts) {
  const auto base_configs = enumerate_parallel(mdl, sys, opts);
  std::vector<std::int64_t> interleaves = opts.interleave_candidates;
  if (interleaves.empty()) interleaves = {1};
  std::vector<parallel::ParallelConfig> configs;
  configs.reserve(base_configs.size() * interleaves.size() *
                  (opts.allow_zero3 ? 2 : 1));
  for (const auto& base : base_configs) {
    for (std::int64_t v : interleaves) {
      if (v > 1 && (base.np <= 1 || (mdl.depth / base.np) % v != 0)) continue;
      parallel::ParallelConfig cfg = base;
      cfg.interleave = v;
      const bool ring_ok = opts.allow_ring_attention && cfg.n2 > 1 &&
                           mdl.attention != model::AttentionKind::kLinear;
      for (int ring = 0; ring <= (ring_ok ? 1 : 0); ++ring) {
        cfg.ring_attention = ring != 0;
        configs.push_back(cfg);
        if (opts.allow_zero3) {
          cfg.zero = parallel::ZeroStage::kWeights;
          configs.push_back(cfg);
          cfg.zero = parallel::ZeroStage::kOptimizer;
        }
      }
    }
  }
  return configs;
}

namespace {

void atomic_min(std::atomic<double>& target, double value) {
  double cur = target.load();
  while (value < cur && !target.compare_exchange_weak(cur, value)) {
  }
}

/// One worker's share of the pruned engine's candidate evaluation: the
/// fabric pricer (its memo is not reentrant, so workers cannot share one),
/// the batch kernel's scratch and timing buffer, and the candidate's
/// finished bind. Leased from a pool local to one search, so each stays
/// warm across the candidates its worker evaluates.
struct ScanWorker {
  comm::FabricPricer pricer;
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> timings;
  core::SystemTiming base;
};

/// One lowered layer, bound once to the search's single system: the
/// block, its bind half and — when core::floor_walk_per_block holds and a
/// screen can run — its floor walk on the search's fabric.
struct SearchBlock {
  core::BatchedSignature bat;
  core::BlockTiming part;
  core::FloorWalk walk;
};

/// Per-candidate results of one sweep over the configuration space.
struct SweepState {
  std::vector<parallel::ParallelConfig> configs;
  std::vector<core::EvalResult> best_per_config;
  std::vector<std::size_t> evals_per_config;
  SearchStats stats;
};

/// Evaluate the candidate space. With opts.prune, uses the memoization
/// caches and the memory-floor rejection; `use_incumbent` additionally
/// enables the branch-and-bound incumbent (disabled when every feasible
/// candidate must survive, i.e. top-k ranking and Pareto frontiers).
SweepState sweep(const model::TransformerConfig& mdl,
                 const hw::SystemConfig& sys, const SearchOptions& opts,
                 bool use_incumbent) {
  SweepState st;
  st.configs = expand_candidates(mdl, sys, opts);
  const std::size_t n = st.configs.size();
  st.best_per_config.resize(n);
  st.evals_per_config.assign(n, 0);
  st.stats.candidates = n;
  if (n == 0) return st;

  const std::int64_t b = opts.global_batch;
  util::ThreadPool pool(opts.threads);

  if (!opts.prune) {
    // Exhaustive brute force (the seed engine): one op list per candidate,
    // one placement enumeration per candidate, no rejection.
    util::parallel_for_dynamic(pool, n, [&](std::size_t i) {
      parallel::ParallelConfig cfg = st.configs[i];
      if (opts.search_placement) {
        const parallel::LayerCost layer =
            parallel::build_layer(mdl, cfg, cfg.local_microbatch(b));
        st.best_per_config[i] = scan_placements(
            mdl, sys, cfg, b, layer, enumerate_placements(cfg, sys.nvs_domain),
            opts.eval, st.evals_per_config[i], /*stop_after_infeasible=*/false);
      } else {
        pack_placement(cfg, sys.nvs_domain);
        st.best_per_config[i] = core::evaluate(mdl, sys, cfg, b, opts.eval);
        st.evals_per_config[i] = 1;
      }
    });
    st.stats.build_layer_calls = n;
    st.stats.placement_sets = opts.search_placement ? n : 0;
    return st;
  }

  ShardedMemo<LayerKey, SearchBlock, LayerKeyHash> blocks;
  PlacementCache placement_cache;
  // One fabric for the whole search: the screen bounds against it and
  // every worker's pricer is bound to it.
  const hw::Topology fabric = sys.resolved_fabric();
  util::ObjectPool<ScanWorker> workers;
  enum : std::uint8_t { kPending, kInvalid, kMemPruned };
  std::vector<std::uint8_t> state(n, kPending);
  std::vector<double> lb(n, 0.0);

  // Phase 1: divisibility checks and analytic bounds — no op lists built.
  util::parallel_for_dynamic(
      pool, n,
      [&](std::size_t i) {
        const parallel::ParallelConfig& cfg = st.configs[i];
        core::EvalResult& slot = st.best_per_config[i];
        slot.cfg = cfg;
        if (auto why = cfg.invalid_reason(mdl, sys, b)) {
          slot.reason = *why;
          state[i] = kInvalid;
          return;
        }
        const core::SearchBounds bounds =
            core::search_bounds(mdl, sys, fabric, cfg, b, opts.eval);
        if (Bytes(bounds.memory_floor) > sys.gpu.hbm_capacity) {
          slot.reason = "exceeds HBM capacity";
          state[i] = kMemPruned;
          return;
        }
        lb[i] = bounds.time_floor;
      },
      /*grain=*/64);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kMemPruned) ++st.stats.memory_pruned;
  }

  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kPending) order.push_back(i);
  }
  // Cheapest bound first, so early rounds likely contain the optimum and
  // the incumbent tightens as fast as possible.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    return lb[a] != lb[c] ? lb[a] < lb[c] : a < c;
  });

  std::atomic<double> incumbent{std::numeric_limits<double>::infinity()};
  std::atomic<std::size_t> tails{0};
  std::atomic<std::size_t> floor_pruned{0};

  // The pruned engine evaluates a candidate as block lookup -> tail ->
  // capacity check -> floor screen -> placement kernel. The block (one per
  // LayerKey, shared by every candidate with the same layer) is lowered,
  // bound to the system and, where it is per block, floor-walked once, at
  // its build; the candidate compiles only its scalar tail and finishes
  // the bind and the floor from the block's sums with the same statements
  // the one-shot forms run, so every result is bitwise unchanged. Phase 1
  // already decided validity, so a candidate that fits in HBM is
  // prevalidated. One over capacity is infeasible under every placement: it
  // gets its reason and a single capacity probe's eval charge, and no
  // timing (infeasible results never reach the reduction's answer).
  // `cutoff` is the placement-floor screen's incumbent (+inf: no screen).
  auto evaluate_candidate = [&](std::size_t i, double cutoff) {
    parallel::ParallelConfig cfg = st.configs[i];
    const std::shared_ptr<const SearchBlock> blk =
        blocks.get(layer_key(mdl, cfg, b), [&] {
          SearchBlock sb;
          sb.bat = lower_block(mdl, cfg, b);
          sb.part = core::bind_block(sb.bat, sys, opts.eval);
          if (use_incumbent && core::floor_walk_per_block(sb.bat)) {
            std::vector<Seconds> row_floor;
            sb.walk = core::floor_comm_walk(sb.bat, sb.part.summa_panel_time,
                                            fabric, cfg, opts.eval, row_floor);
          }
          return sb;
        });
    const core::SignatureTail tail =
        core::compile_tail(mdl, cfg, b, blk->bat, opts.eval);
    tails.fetch_add(1, std::memory_order_relaxed);
    util::ObjectPool<ScanWorker>::Lease w = workers.acquire();
    if (!w->pricer.bound()) w->pricer.rebind(fabric);
    core::EvalResult r;
    if (!opts.search_placement) {
      pack_placement(cfg, sys.nvs_domain);
      core::finish_bind(blk->part, tail, sys, w->base);
      r = scan_placements_batch(mdl, sys, cfg, b, tail, blk->bat, w->base,
                                {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}},
                                opts.eval, st.evals_per_config[i],
                                /*stop_after_infeasible=*/true, w->scratch,
                                w->timings, &w->pricer);
    } else {
      const auto placements = placement_cache.get(cfg, sys.nvs_domain);
      if (placements->empty()) {
        r.cfg = cfg;
        r.reason = "no valid placement";
      } else if (tail.mem.total() > sys.gpu.hbm_capacity) {
        r.cfg = cfg;
        r.mem = tail.mem;
        r.reason = "exceeds HBM capacity";
        st.evals_per_config[i] = 1;
      } else {
        core::finish_bind(blk->part, tail, sys, w->base);
        double floor = 0;
        if (use_incumbent &&
            cutoff < std::numeric_limits<double>::infinity()) {
          const core::FloorWalk walk =
              core::floor_walk_per_block(blk->bat)
                  ? blk->walk
                  : core::floor_comm_walk(blk->bat, blk->part.summa_panel_time,
                                          fabric, cfg, opts.eval,
                                          w->scratch.row_floor);
          floor = core::finish_placement_floor(walk, tail, blk->bat, w->base,
                                               cfg);
        }
        bool screened = false;
        r = scan_placements_batch(mdl, sys, cfg, b, tail, blk->bat, w->base,
                                  *placements, opts.eval,
                                  st.evals_per_config[i],
                                  /*stop_after_infeasible=*/true, w->scratch,
                                  w->timings, &w->pricer,
                                  /*prevalidated=*/true, floor, cutoff,
                                  &screened);
        if (screened) floor_pruned.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (r.feasible) atomic_min(incumbent, r.iteration());
    st.best_per_config[i] = std::move(r);
  };

  if (!use_incumbent) {
    util::parallel_for_dynamic(pool, order.size(), [&](std::size_t j) {
      evaluate_candidate(order[j], std::numeric_limits<double>::infinity());
    });
  } else {
    // Branch-and-bound rounds: evaluate round_size candidates, re-read the
    // incumbent at the barrier, and cut off the sorted suffix whose lower
    // bound it beats. The incumbent after a barrier is a min over a
    // completed set of evaluations, so the pruning decisions — and all
    // counters — are independent of the thread count. A pruned candidate
    // satisfies time >= lb > incumbent >= optimum, so it can change
    // neither the optimum nor its memory tie-break. The placement-floor
    // screen inside a round uses the same barrier incumbent t_best (not the
    // live atomic), so which candidates it settles is thread-invariant too.
    const std::size_t round_size = std::max<std::size_t>(1, opts.round_size);
    std::size_t pos = 0;
    std::size_t active_end = order.size();
    while (pos < active_end) {
      const double t_best = incumbent.load();
      const auto cut = std::upper_bound(
          order.begin() + static_cast<std::ptrdiff_t>(pos),
          order.begin() + static_cast<std::ptrdiff_t>(active_end), t_best,
          [&](double t, std::size_t idx) { return t < lb[idx]; });
      const std::size_t new_end =
          static_cast<std::size_t>(cut - order.begin());
      for (std::size_t j = new_end; j < active_end; ++j) {
        st.best_per_config[order[j]].reason =
            "pruned: lower bound above incumbent";
        ++st.stats.bound_pruned;
      }
      active_end = new_end;
      if (pos >= active_end) break;

      const std::size_t round_end = std::min(pos + round_size, active_end);
      util::parallel_for_dynamic(pool, round_end - pos,
                                 [&, pos, t_best](std::size_t j) {
                                   evaluate_candidate(order[pos + j], t_best);
                                 });
      pos = round_end;
      ++st.stats.rounds;
    }
  }

  st.stats.placement_floor_pruned = floor_pruned.load();
  st.stats.build_layer_calls = blocks.builds();
  st.stats.layer_cache_hits = blocks.hits();
  st.stats.placement_sets = placement_cache.builds();
  st.stats.placement_cache_hits = placement_cache.hits();
  st.stats.signature_compiles = tails.load();
  return st;
}

/// Feasible candidate indices sorted best-first (time, then memory, then
/// index for a deterministic order on exact ties).
std::vector<std::size_t> feasible_by_rank(const SweepState& st) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < st.best_per_config.size(); ++i) {
    if (st.best_per_config[i].feasible) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t c) {
    const core::EvalResult& ra = st.best_per_config[a];
    const core::EvalResult& rc = st.best_per_config[c];
    if (ra.iteration() != rc.iteration()) {
      return ra.iteration() < rc.iteration();
    }
    if (ra.mem.total() != rc.mem.total()) {
      return ra.mem.total() < rc.mem.total();
    }
    return a < c;
  });
  return idx;
}

}  // namespace

core::EvalResult best_placement(const model::TransformerConfig& mdl,
                                const hw::SystemConfig& sys,
                                parallel::ParallelConfig cfg,
                                std::int64_t global_batch,
                                const core::EvalOptions& eval) {
  eval.validate();
  core::EvalResult best;
  best.cfg = cfg;
  best.reason = "no valid placement";
  // Divisibility failures are placement-independent: report them directly.
  cfg.nvs1 = cfg.nvs2 = cfg.nvsp = cfg.nvsd = 1;
  if (auto why = cfg.invalid_reason(mdl, sys, global_batch)) {
    best.reason = *why;
    return best;
  }
  // Compile, lower and bind once, then time every placement in one batched
  // kernel call, priced by a transient pricer on base.fabric. No screen has
  // run, so the scan keeps its own validity and capacity probe.
  const core::CostSignature sig =
      core::compile_signature(mdl, cfg, global_batch, eval);
  const core::BatchedSignature bat = core::lower_batched(sig);
  const core::SystemTiming base = core::bind_system_batched(sig, bat, sys, eval);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> timings;
  std::size_t evals = 0;
  return scan_placements_batch(mdl, sys, cfg, global_batch, sig, bat, base,
                               enumerate_placements(cfg, sys.nvs_domain), eval,
                               evals, /*stop_after_infeasible=*/false, scratch,
                               timings);
}

SearchResult find_optimal(const model::TransformerConfig& mdl,
                          const hw::SystemConfig& sys,
                          const SearchOptions& opts) {
  opts.eval.validate();
  // Incumbent pruning discards everything provably slower than the optimum,
  // which is exactly what a top-k ranking must keep — bypass it there.
  SweepState st = sweep(mdl, sys, opts,
                        /*use_incumbent=*/opts.prune && opts.top_k == 0);

  SearchResult result;
  result.best.reason = "no feasible configuration";
  result.stats = st.stats;
  for (std::size_t i = 0; i < st.best_per_config.size(); ++i) {
    result.evaluated += st.evals_per_config[i];
    if (st.best_per_config[i].feasible) ++result.feasible;
    if (better_result(st.best_per_config[i], result.best)) {
      result.best = st.best_per_config[i];
    }
  }

  if (opts.top_k > 0) {
    std::vector<std::size_t> idx = feasible_by_rank(st);
    if (idx.size() > opts.top_k) idx.resize(opts.top_k);
    result.top.reserve(idx.size());
    for (std::size_t i : idx) {
      result.top.push_back(std::move(st.best_per_config[i]));
    }
  }
  return result;
}

std::vector<core::EvalResult> pareto_frontier(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    SearchOptions opts) {
  opts.eval.validate();
  opts.top_k = 0;
  // Every feasible candidate must be inspected; the caches still apply.
  SweepState st = sweep(mdl, sys, opts, /*use_incumbent=*/false);
  // Walk the ranking fastest-first, keeping strictly lighter entries —
  // the frontier is streamed out of the per-candidate slots rather than
  // materializing a copy of the whole feasible set.
  std::vector<core::EvalResult> frontier;
  double best_mem = std::numeric_limits<double>::infinity();
  for (std::size_t i : feasible_by_rank(st)) {
    if (st.best_per_config[i].mem.total().value() < best_mem) {
      best_mem = st.best_per_config[i].mem.total().value();
      frontier.push_back(std::move(st.best_per_config[i]));
    }
  }
  return frontier;
}

}  // namespace tfpe::search
