#include "search/point_scan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tfpe::search {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

PointOutcome scan_point(const ScanShared& sh, const hw::SystemConfig& sys,
                        const std::vector<parallel::ParallelConfig>& configs,
                        std::size_t seed_index, ScanScratch& scratch,
                        ChainContext& chain) {
  const std::int64_t b = sh.opts.search.global_batch;
  const core::EvalOptions& eval = sh.opts.search.eval;
  const std::size_t n = configs.size();
  std::vector<core::PlacementTiming>& timings = scratch.timings;
  PointOutcome out;
  std::int64_t compile_ns = 0;
  std::int64_t time_ns = 0;
  const auto screen_t0 = Clock::now();

  chain.point = chain.point == kNoSeed ? 0 : chain.point + 1;
  chain.entries.resize(n);
  chain.fabric = sys.resolved_fabric();
  // Rebind AFTER the fabric assignment: the pricer points at chain.fabric
  // (stable address) and precomputes its per-level terms.
  chain.pricer.rebind(chain.fabric);
  if (chain.point == 0 || !hw::same_roofline(chain.gpu, sys.gpu) ||
      chain.host_bw.value() != sys.host_bandwidth.value()) {
    for (ChainEntry& e : chain.entries) e.lb_ready = 0;
    for (ChainBlock& cb : chain.blocks) cb.bound = 0;
    chain.gpu = sys.gpu;
    chain.host_bw = sys.host_bandwidth;
  }

  // A result only escapes scan_point when it is feasible (better_result
  // never prefers an infeasible one, and an all-infeasible point reports
  // the fixed "no feasible configuration" reason), so the scan keeps just
  // the sparse list of feasible results and skips every infeasible store —
  // reasons, cfg copies, a dense per-candidate vector.
  std::vector<std::pair<std::size_t, core::EvalResult>>& feasible =
      scratch.feasible;
  feasible.clear();
  std::vector<double>& lb = scratch.lb;
  lb.assign(n, 0.0);
  std::vector<char>& pending = scratch.pending;
  pending.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const parallel::ParallelConfig& cfg = configs[i];
    ChainEntry& e = chain.entries[i];
    if (cfg.placement_product() == 1) {
      // A unit-placement candidate's validity reads only the cluster size,
      // so the verdict survives along the chain (stamped for safety).
      if (e.screened == 0 || e.screen_n_gpus != sys.n_gpus) {
        e.screened = cfg.invalid_reason(sh.mdl, sys, b) ? 2 : 1;
        e.screen_n_gpus = sys.n_gpus;
      }
      if (e.screened == 2) continue;
    } else if (cfg.invalid_reason(sh.mdl, sys, b)) {
      continue;
    }
    if (e.tail && e.tail->mem.total() > sys.gpu.hbm_capacity) {
      // Screen-level capacity gate: a candidate compiled on an earlier
      // point of the chain whose tail already exceeds this point's
      // HBM is charged its one capacity probe right here and never enters
      // the scan order — no bounds, no placement lookup, no reduction
      // visit. (First-point candidates have no tail yet; they gate
      // inside evaluate after compiling.) Relative to find_optimal this
      // moves the candidate from memory_pruned / bound_pruned to
      // evaluated, deterministically and thread-invariantly — chains are
      // sequential — and the optima are untouched: an over-capacity
      // candidate is infeasible under every placement. Served by the
      // chain-held tail (see signature_reuses).
      ++out.signature_reuses;
      ++out.evaluated;
      continue;
    }
    if (!e.lb_ready) {
      e.lb_base = core::search_bounds_base(sh.mdl, sys, cfg, b, eval);
      e.lb_ready = 1;
    }
    const core::SearchBounds bounds =
        core::finish_search_bounds(e.lb_base, sh.mdl, chain.fabric, cfg);
    if (Bytes(bounds.memory_floor) > sys.gpu.hbm_capacity) {
      ++out.memory_pruned;
      continue;
    }
    lb[i] = bounds.time_floor;
    pending[i] = 1;
  }

  std::vector<std::size_t>& order = scratch.order;
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i]) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    return lb[a] != lb[c] ? lb[a] < lb[c] : a < c;
  });
  time_ns += ns_since(screen_t0);

  std::vector<char>& done = scratch.done;
  done.assign(n, 0);

  // Evaluate candidate i as tail -> capacity check -> block bind -> floor
  // screen -> placement kernel, returning its achieved iteration time
  // (infinity when infeasible or settled by the placement-floor screen
  // against `cutoff`). State persists along the chain: a candidate's tail
  // is compiled once (and shared across chains through the tail cache),
  // its capacity verdict decided once; a block is bound once per GPU
  // roofline and floor-walked once per point, and every candidate of the
  // block finishes both from those sums with the statements of the
  // one-shot forms, so results are bitwise unchanged. Over-capacity
  // candidates (the bulk of a large-model grid) never touch their block:
  // better_result never prefers an infeasible result, so only the eval
  // count must match the reference scan. Gated shortcuts after the first
  // point are too small to bracket with the stage clock; the stage profile
  // counts the heavyweight stage bodies.
  const auto evaluate = [&](std::size_t i, double cutoff) -> double {
    const parallel::ParallelConfig& cfg = configs[i];
    ChainEntry& e = chain.entries[i];
    auto compile_t0 = Clock::now();
    if (!e.tail) {
      e.tail = sh.caches.tails.get(signature_key(cfg), [&] {
        e.block = sh.caches.block(sh.mdl, cfg, b);
        return core::compile_tail(sh.mdl, cfg, b, e.block->bat, eval);
      });
      compile_ns += ns_since(compile_t0);
    } else {
      ++out.signature_reuses;
    }
    const core::SignatureTail& tail = *e.tail;
    if (tail.mem.total() > sys.gpu.hbm_capacity) {
      // One capacity probe — the candidate's placements are never
      // enumerated, looked up, or timed, so the evaluation counters report
      // the work the scan actually did (the exhaustive reference charges
      // the whole placement set; optima are unaffected either way, only
      // the bookkeeping differs).
      ++out.evaluated;
      done[i] = 1;
      return std::numeric_limits<double>::infinity();
    }
    compile_t0 = Clock::now();
    if (!e.block) e.block = sh.caches.block(sh.mdl, cfg, b);
    const core::BatchedSignature& bat = e.block->bat;
    if (chain.blocks.size() <= e.block->id) {
      chain.blocks.resize(e.block->id + 1);
    }
    ChainBlock& cb = chain.blocks[e.block->id];
    if (!cb.bound) {
      cb.part = core::bind_block(bat, sys, eval);
      cb.bound = 1;
    }
    core::finish_bind(cb.part, tail, sys, scratch.base);
    compile_ns += ns_since(compile_t0);

    const auto time_t0 = Clock::now();
    core::EvalResult r;
    std::size_t evals = 0;
    const auto placements = sh.placement_cache.get(cfg, sys.nvs_domain);
    double floor = 0;
    if (cutoff < std::numeric_limits<double>::infinity()) {
      core::FloorWalk walk;
      if (core::floor_walk_per_block(bat)) {
        if (cb.walk_point != chain.point) {
          cb.walk = core::floor_comm_walk(bat, cb.part.summa_panel_time,
                                          chain.fabric, cfg, eval,
                                          scratch.batch.row_floor);
          cb.walk_point = chain.point;
        }
        walk = cb.walk;
      } else {
        walk = core::floor_comm_walk(bat, cb.part.summa_panel_time,
                                     chain.fabric, cfg, eval,
                                     scratch.batch.row_floor);
      }
      floor = core::finish_placement_floor(walk, tail, bat, scratch.base, cfg);
    }
    bool screened = false;
    // prevalidated: the screening loop / capacity gates above already
    // decided validity and HBM fit for this candidate, so the scan's
    // placement-invariant shortcut is provably dead.
    r = scan_placements_batch(sh.mdl, sys, cfg, b, tail, bat, scratch.base,
                              *placements, eval, evals,
                              /*stop_after_infeasible=*/true, scratch.batch,
                              timings, &chain.pricer, /*prevalidated=*/true,
                              floor, cutoff, &screened);
    if (screened) ++out.placement_floor_pruned;
    if (!timings.empty()) {
      ++out.batch_calls;
      out.batch_placements += timings.size();
    }
    out.evaluated += evals;
    time_ns += ns_since(time_t0);
    done[i] = 1;
    if (!r.feasible) return std::numeric_limits<double>::infinity();
    const double t = r.iteration();
    feasible.emplace_back(i, std::move(r));
    return t;
  };

  double incumbent = std::numeric_limits<double>::infinity();

  // Warm start: re-time the chain parent's optimal candidate first. Its
  // time at THIS point is an achieved iteration time, so using it as the
  // incumbent is exactly as conservative as any other achieved time — a
  // candidate pruned against it satisfies time >= lb > incumbent >= optimum
  // and can neither be nor tie the optimum. The optimum is therefore
  // bitwise-unchanged; only the pruning (and eval counts) tighten.
  if (seed_index != kNoSeed && seed_index < n && pending[seed_index]) {
    out.warm_seeded = true;
    const double t =
        evaluate(seed_index, std::numeric_limits<double>::infinity());
    if (t < incumbent) {
      incumbent = t;
      out.warm_seed_feasible = true;
    }
  }

  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    if (done[i]) continue;
    if (lb[i] > incumbent) {
      // The order is lb-sorted: everything from here on is provably slower
      // than an achieved time (and a pruned candidate cannot tie, so the
      // index-order reduction below still picks find_optimal's answer).
      for (std::size_t j = pos; j < order.size(); ++j) {
        if (!done[order[j]]) ++out.bound_pruned;
      }
      break;
    }
    // The placement-floor screen runs against the same running incumbent:
    // a screened candidate is slower than an achieved time, so it can
    // neither be nor tie the optimum.
    const double t = evaluate(i, incumbent);
    if (t < incumbent) incumbent = t;
  }

  // Reduce in candidate-index order with the shared predicate — the same
  // tie-breaking walk find_optimal performs, so the two agree bitwise even
  // between equal-time configurations. The sparse list visits the same
  // feasible results in the same index order as a dense walk; the dense
  // walk's extra visits are all infeasible, which the predicate never
  // prefers.
  out.best.reason = "no feasible configuration";
  std::sort(feasible.begin(), feasible.end(),
            [](const auto& a, const auto& c) { return a.first < c.first; });
  for (const auto& [i, r] : feasible) {
    if (better_result(r, out.best)) {
      out.best = r;
      out.best_index = i;
    }
  }
  if (!out.best.feasible) out.best_index = kNoSeed;
  sh.compile_ns.fetch_add(compile_ns, std::memory_order_relaxed);
  sh.time_ns.fetch_add(time_ns, std::memory_order_relaxed);
  return out;
}

}  // namespace tfpe::search
