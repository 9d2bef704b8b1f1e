#include "search/point_scan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tfpe::search {

namespace {

using Clock = std::chrono::steady_clock;

bool same_roofline(const hw::GpuSpec& a, const hw::GpuSpec& b) {
  return a.tensor_flops.value() == b.tensor_flops.value() &&
         a.vector_flops.value() == b.vector_flops.value() &&
         a.flops_latency.value() == b.flops_latency.value() &&
         a.hbm_bandwidth.value() == b.hbm_bandwidth.value() &&
         a.hbm_capacity.value() == b.hbm_capacity.value();
}

}  // namespace

PointOutcome scan_point(const ScanShared& sh, const hw::SystemConfig& sys,
                        const std::vector<parallel::ParallelConfig>& configs,
                        std::size_t seed_index, ScanScratch& scratch,
                        ChainContext& chain) {
  const SweepOptions& opts = sh.opts;
  const std::int64_t b = opts.search.global_batch;
  const core::EvalOptions& eval = opts.search.eval;
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
  if (chain.point == 0 || !same_roofline(chain.gpu, sys.gpu) ||
      chain.host_bw.value() != sys.host_bandwidth.value()) {
    for (ChainEntry& e : chain.entries) {
      e.bound = 0;
      e.lb_ready = 0;
    }
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
    if (opts.search.search_placement && e.sig &&
        e.sig->mem.total() > sys.gpu.hbm_capacity) {
      // Screen-level capacity gate: a candidate compiled on an earlier
      // point of the chain whose signature already exceeds this point's
      // HBM is charged its one capacity probe right here and never enters
      // the scan order — no bounds, no placement lookup, no reduction
      // visit. (First-point candidates have no signature yet; they gate
      // inside evaluate after compiling.) Relative to find_optimal this
      // moves the candidate from memory_pruned / bound_pruned to
      // evaluated, deterministically and thread-invariantly — chains are
      // sequential — and the optima are untouched: an over-capacity
      // candidate is infeasible under every placement. Served by the
      // chain-held signature (see signature_reuses).
      ++out.signature_reuses;
      ++out.evaluated;
      continue;
    }
    if (opts.search.prune) {
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
    }
    pending[i] = 1;
  }

  std::vector<std::size_t>& order = scratch.order;
  order.clear();
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pending[i]) order.push_back(i);
  }
  if (opts.search.prune) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
      return lb[a] != lb[c] ? lb[a] < lb[c] : a < c;
    });
  }
  time_ns += ns_since(screen_t0);

  std::vector<char>& done = scratch.done;
  done.assign(n, 0);

  // Evaluate candidate i through the compile -> bind -> time stages,
  // returning its achieved iteration time (infinity when infeasible or
  // settled by the placement-floor screen against `cutoff`).
  // Candidate state persists along the chain: a candidate is compiled
  // once, its capacity verdict decided once, and — if it ever needs
  // timing — lowered and bound once, with only the fabric restamped on
  // later points. Over-capacity candidates (the bulk of a large-model
  // grid) skip bind/lower/timing entirely: better_result never prefers an
  // infeasible result, so only the eval count must match the reference
  // scan. Gated shortcuts after the first point are too small to bracket
  // with the stage clock; the stage profile counts the heavyweight stage
  // bodies.
  const auto evaluate = [&](std::size_t i, double cutoff) -> double {
    parallel::ParallelConfig cfg = configs[i];
    ChainEntry& e = chain.entries[i];
    if (!e.sig) {
      const auto compile_t0 = Clock::now();
      e.sig = sh.signature_cache.get(sh.mdl, cfg, b, eval, sh.layer_cache);
      compile_ns += ns_since(compile_t0);
    } else {
      ++out.signature_reuses;
    }
    const bool over_capacity = e.sig->mem.total() > sys.gpu.hbm_capacity;
    if (over_capacity && opts.search.search_placement) {
      // One capacity probe — the candidate's placements are never
      // enumerated, looked up, or timed, so the evaluation counters report
      // the work the scan actually did (the exhaustive reference charges
      // the whole placement set; optima are unaffected either way, only
      // the bookkeeping differs).
      ++out.evaluated;
      done[i] = 1;
      return std::numeric_limits<double>::infinity();
    }
    if (!e.bound) {
      const auto compile_t0 = Clock::now();
      e.bat = sh.batched_cache.get(e.sig);
      // On the placement-search path every collective is priced through
      // chain.pricer and the candidate's own fabric copy is dead weight —
      // skip the capture AND the per-point restamp below. The
      // time_signature path still reads base.fabric.
      e.base = core::bind_system_batched(
          *e.sig, *e.bat, sys, eval,
          /*capture_fabric=*/!opts.search.search_placement);
      e.fabric_point = chain.point;
      e.bound = 1;
      compile_ns += ns_since(compile_t0);
    } else if (!opts.search.search_placement &&
               e.fabric_point != chain.point) {
      e.base.fabric = chain.fabric;
      e.fabric_point = chain.point;
    }

    const auto time_t0 = Clock::now();
    core::EvalResult r;
    if (opts.search.search_placement) {
      const auto placements = sh.placement_cache.get(cfg, sys.nvs_domain);
      std::size_t evals = 0;
      bool screened = false;
      // prevalidated: the screening loop / capacity gates above already
      // decided validity and HBM fit for this candidate, so the scan's
      // placement-invariant shortcut (which reads base.fabric via
      // time_signature) is provably dead — skipping it is what lets the
      // bind above drop the fabric capture.
      r = scan_placements_batch(sh.mdl, sys, cfg, b, *e.sig, *e.bat, e.base,
                                *placements, eval, evals,
                                /*stop_after_infeasible=*/opts.search.prune,
                                scratch.batch, timings, &chain.pricer,
                                /*prevalidated=*/true, cutoff, &screened);
      if (screened) ++out.placement_floor_pruned;
      if (!timings.empty()) {
        ++out.batch_calls;
        out.batch_placements += timings.size();
      }
      out.evaluated += evals;
    } else {
      pack_placement(cfg, sys.nvs_domain);
      r = core::time_signature(*e.sig, e.base, sh.mdl, sys, cfg, b, eval);
      ++out.evaluated;
    }
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
    if (opts.search.prune && lb[i] > incumbent) {
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
    const double t =
        evaluate(i, opts.search.prune
                        ? incumbent
                        : std::numeric_limits<double>::infinity());
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
