#include "search/search.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

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
    const core::EvalOptions& eval, std::size_t& evals) {
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
    if (!r.feasible && !best.feasible) best = r;  // keep a concrete reason
  }
  return best;
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
/// block, its bind half and — when core::floor_walk_per_block holds — its
/// floor walk on the search's fabric.
struct SearchBlock {
  core::BatchedSignature bat;
  core::BlockTiming part;
  core::CommWalk walk;
};

/// One evaluated candidate: its index in the flattened candidate tree, its
/// best result and the placements it was charged.
struct Evaluated {
  std::size_t index = 0;
  core::EvalResult result;
  std::size_t evals = 0;
};

/// The evaluated candidates of one sweep over the configuration space, in
/// index order, and the work counters.
struct SweepState {
  std::vector<Evaluated> results;
  SearchStats stats;
};

/// Evaluate the candidate space. With opts.prune, a branch-and-bound over
/// the candidate tree against the k-th best achieved time, k =
/// max(1, opts.top_k): every candidate of the top-k ranking is evaluated.
SweepState sweep(const model::TransformerConfig& mdl,
                 const hw::SystemConfig& sys, const SearchOptions& opts) {
  SweepState st;
  const CandidateTree tree(mdl, sys.n_gpus, opts);
  st.stats.candidates = tree.size();
  if (tree.size() == 0) return st;

  const std::int64_t b = opts.global_batch;
  // One worker runs every loop inline, with no pool thread to spawn.
  const unsigned workers =
      opts.threads != 0 ? opts.threads
                        : std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(opts.threads);
  const auto for_each = [&](std::size_t count,
                            const std::function<void(std::size_t)>& body) {
    if (pool) {
      util::parallel_for_dynamic(*pool, count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  };

  if (!opts.prune) {
    // Exhaustive brute force (the seed engine): one op list per candidate,
    // one placement enumeration per candidate, no rejection.
    const std::vector<parallel::ParallelConfig> configs =
        expand_candidates(mdl, sys, opts);
    st.results.resize(configs.size());
    for_each(configs.size(), [&](std::size_t i) {
      const parallel::ParallelConfig& cfg = configs[i];
      const parallel::LayerCost layer =
          parallel::build_layer(mdl, cfg, cfg.local_microbatch(b));
      Evaluated& e = st.results[i];
      e.index = i;
      e.result = scan_placements(mdl, sys, cfg, b, layer,
                                 enumerate_placements(cfg, sys.nvs_domain),
                                 opts.eval, e.evals);
    });
    st.stats.build_layer_calls = configs.size();
    st.stats.placement_sets = configs.size();
    return st;
  }

  ShardedMemo<LayerKey, SearchBlock, LayerKeyHash> blocks;
  PlacementCache placement_cache;
  // One fabric for the whole search: the screens bound against it and
  // every worker's pricer is bound to it.
  const hw::Topology fabric = sys.resolved_fabric();
  util::ObjectPool<ScanWorker> workers_pool;

  // Prefix screen: validity is decided per prefix (the leaves' own axes
  // are valid by construction), and each valid prefix gets its floor. No
  // leaf is materialized here.
  const std::vector<CandidatePrefix>& prefixes = tree.prefixes();
  PrefixMerge merge;
  for (std::uint32_t p = 0; p < prefixes.size(); ++p) {
    const parallel::ParallelConfig& cfg = prefixes[p].cfg;
    if (cfg.invalid_reason(mdl, sys, b)) continue;
    merge.add(p, core::prefix_time_floor(mdl, sys, fabric, cfg, b, opts.eval));
  }
  merge.start();

  // Expanding a prefix bounds each of its leaves: one over HBM under every
  // placement is memory-pruned, the rest join the merge.
  const auto expand = [&](std::uint32_t p) {
    tree.for_each_leaf(prefixes[p], [&](const parallel::ParallelConfig& cfg,
                                        std::size_t index) {
      const core::SearchBounds bounds =
          core::search_bounds(mdl, sys, fabric, cfg, b, opts.eval);
      if (Bytes(bounds.memory_floor) > sys.gpu.hbm_capacity) {
        ++st.stats.memory_pruned;
        return;
      }
      merge.push(bounds.time_floor, index, p);
    });
  };

  std::atomic<std::size_t> tails{0};
  std::atomic<std::size_t> floor_pruned{0};

  // The pruned engine evaluates a candidate as block lookup -> tail ->
  // capacity check -> floor screen -> placement kernel. The block (one per
  // LayerKey, shared by every candidate with the same layer) is lowered,
  // bound to the system and, where it is per block, floor-walked once, at
  // its build; the candidate compiles only its scalar tail and finishes
  // the bind and the floor from the block's sums with the same statements
  // the one-shot forms run, so every result is bitwise unchanged. The
  // prefix screen already decided validity, so a candidate that fits in
  // HBM is prevalidated. One over capacity is infeasible under every
  // placement: it gets its reason and a single capacity probe's eval
  // charge, and no timing (infeasible results never reach the reduction's
  // answer). `cutoff` is the placement-floor screen's (+inf: no screen).
  auto evaluate_candidate = [&](const PendingLeaf& c, double cutoff,
                                Evaluated& out) {
    const parallel::ParallelConfig cfg =
        tree.leaf(prefixes[c.prefix], c.index);
    const std::shared_ptr<const SearchBlock> blk =
        blocks.get(layer_key(mdl, cfg, b), [&] {
          SearchBlock sb;
          sb.bat = lower_block(mdl, cfg, b);
          sb.part = core::bind_block(sb.bat, sys, opts.eval);
          if (core::floor_walk_per_block(sb.bat)) {
            std::vector<Seconds> row_floor;
            sb.walk = core::floor_comm_walk(sb.bat, sb.part.summa_panel_time,
                                            fabric, cfg, opts.eval, row_floor);
          }
          return sb;
        });
    const core::SignatureTail tail =
        core::compile_tail(mdl, cfg, b, blk->bat, opts.eval);
    tails.fetch_add(1, std::memory_order_relaxed);
    util::ObjectPool<ScanWorker>::Lease w = workers_pool.acquire();
    if (!w->pricer.bound()) w->pricer.rebind(fabric);
    out.index = c.index;
    core::EvalResult& r = out.result;
    const auto placements = placement_cache.get(cfg, sys.nvs_domain);
    if (placements->empty()) {
      r.cfg = cfg;
      r.reason = "no valid placement";
    } else if (tail.mem.total() > sys.gpu.hbm_capacity) {
      r.cfg = cfg;
      r.mem = tail.mem;
      r.reason = "exceeds HBM capacity";
      out.evals = 1;
    } else {
      core::finish_bind(blk->part, tail, sys, w->base);
      double floor = 0;
      if (cutoff < std::numeric_limits<double>::infinity()) {
        const core::CommWalk walk =
            core::floor_walk_per_block(blk->bat)
                ? blk->walk
                : core::floor_comm_walk(blk->bat, blk->part.summa_panel_time,
                                        fabric, cfg, opts.eval,
                                        w->scratch.row_floor);
        floor =
            core::finish_placement_floor(walk, tail, blk->bat, w->base, cfg);
      }
      bool screened = false;
      r = scan_placements_batch(mdl, sys, cfg, b, tail, blk->bat, w->base,
                                *placements, opts.eval, out.evals,
                                /*stop_after_infeasible=*/true, w->scratch,
                                w->timings, &w->pricer, /*prevalidated=*/true,
                                floor, cutoff, &screened);
      if (screened) floor_pruned.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Branch-and-bound rounds. Each round pops up to round_size candidates
  // from the merge in (lb, index) order among those with lb <= the barrier
  // cutoff, so the pops are the prefix of one global (lb, index) sort and a
  // prefix whose floor stays above the cutoff is never expanded. The cutoff
  // is the k-th smallest feasible time of the rounds completed so far (+inf
  // while fewer than k are feasible): k candidates already beat a leaf with
  // time >= lb > cutoff, so it can enter neither the ranking nor the
  // optimum's memory tie-break, and a leaf that ties the cutoff is still
  // timed. It never rises, and it is a function of a completed set of
  // evaluations, so the pruning decisions — and all counters — are
  // independent of the thread count. The placement-floor screen inside a
  // round uses the same barrier cutoff. For k = 1 it is the incumbent.
  const std::size_t k = std::max<std::size_t>(1, opts.top_k);
  std::vector<double> best_times;  // the k smallest so far, ascending
  std::vector<PendingLeaf> round;
  round.reserve(SearchOptions::round_size);
  for (;;) {
    const double cutoff = best_times.size() < k
                              ? std::numeric_limits<double>::infinity()
                              : best_times.back();
    round.clear();
    PendingLeaf c;
    while (round.size() < SearchOptions::round_size &&
           merge.pop(cutoff, expand, c)) {
      round.push_back(c);
    }
    if (round.empty()) break;
    const std::size_t base = st.results.size();
    st.results.resize(base + round.size());
    for_each(round.size(), [&](std::size_t j) {
      evaluate_candidate(round[j], cutoff, st.results[base + j]);
    });
    for (std::size_t j = base; j < st.results.size(); ++j) {
      const core::EvalResult& r = st.results[j].result;
      if (!r.feasible) continue;
      best_times.insert(std::upper_bound(best_times.begin(), best_times.end(),
                                         r.iteration()),
                        r.iteration());
      if (best_times.size() > k) best_times.pop_back();
    }
    ++st.stats.rounds;
  }

  // Everything left is above the final cutoff: the expanded leaves one by
  // one, the unexpanded prefixes whole.
  std::vector<double> group_floors;
  for (const auto& [floor, p] : merge.unexpanded()) {
    group_floors.clear();
    group_memory_floors(
        tree, prefixes[p],
        [&](const parallel::ParallelConfig& cfg) {
          return core::memory_floor(mdl, cfg, b, opts.eval);
        },
        group_floors);
    classify_unexpanded(tree, prefixes[p], group_floors, sys.gpu.hbm_capacity,
                        {}, st.stats.memory_pruned, st.stats.subtree_pruned);
  }
  st.stats.bound_pruned = merge.unpopped() + st.stats.subtree_pruned;
  std::sort(st.results.begin(), st.results.end(),
            [](const Evaluated& a, const Evaluated& c) {
              return a.index < c.index;
            });

  st.stats.placement_floor_pruned = floor_pruned.load();
  st.stats.build_layer_calls = blocks.builds();
  st.stats.layer_cache_hits = blocks.hits();
  st.stats.placement_sets = placement_cache.builds();
  st.stats.placement_cache_hits = placement_cache.hits();
  st.stats.signature_compiles = tails.load();
  return st;
}

/// Feasible results sorted best-first (time, then memory, then candidate
/// index for a deterministic order on exact ties).
std::vector<core::EvalResult*> feasible_by_rank(SweepState& st) {
  std::vector<Evaluated*> ranked;
  for (Evaluated& e : st.results) {
    if (e.result.feasible) ranked.push_back(&e);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Evaluated* a, const Evaluated* c) {
              const core::EvalResult& ra = a->result;
              const core::EvalResult& rc = c->result;
              if (ra.iteration() != rc.iteration()) {
                return ra.iteration() < rc.iteration();
              }
              if (ra.mem.total() != rc.mem.total()) {
                return ra.mem.total() < rc.mem.total();
              }
              return a->index < c->index;
            });
  std::vector<core::EvalResult*> out;
  out.reserve(ranked.size());
  for (Evaluated* e : ranked) out.push_back(&e->result);
  return out;
}

}  // namespace

void classify_unexpanded(const CandidateTree& tree,
                         const CandidatePrefix& prefix,
                         std::span<const double> group_floors, Bytes hbm,
                         std::span<const std::size_t> settled,
                         std::size_t& memory_pruned,
                         std::size_t& subtree_pruned) {
  const std::size_t per_group =
      tree.leaves_per_m(prefix) / tree.groups_per_m(prefix);
  for (std::size_t g = 0; g < group_floors.size(); ++g) {
    const std::size_t leaves = per_group - (settled.empty() ? 0 : settled[g]);
    (Bytes(group_floors[g]) > hbm ? memory_pruned : subtree_pruned) += leaves;
  }
}

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
  SweepState st = sweep(mdl, sys, opts);

  SearchResult result;
  result.best.reason = "no feasible configuration";
  result.stats = st.stats;
  for (const Evaluated& e : st.results) {
    result.evaluated += e.evals;
    if (e.result.feasible) ++result.feasible;
    if (better_result(e.result, result.best)) result.best = e.result;
  }

  if (opts.top_k > 0) {
    std::vector<core::EvalResult*> ranked = feasible_by_rank(st);
    if (ranked.size() > opts.top_k) ranked.resize(opts.top_k);
    result.top.reserve(ranked.size());
    for (core::EvalResult* r : ranked) result.top.push_back(std::move(*r));
  }
  return result;
}

}  // namespace tfpe::search
