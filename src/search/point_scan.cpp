#include "search/point_scan.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace tfpe::search {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

MemoryFloors::MemoryFloors(const model::TransformerConfig& mdl,
                           const CandidateTree& tree,
                           std::int64_t global_batch,
                           const core::EvalOptions& eval,
                           ShapeCaches& caches) {
  first_.reserve(tree.prefixes().size() + 1);
  prefix_min_.reserve(tree.prefixes().size());
  first_.push_back(0);
  for (const CandidatePrefix& prefix : tree.prefixes()) {
    // The prefix's layer family with ring attention off and on.
    std::shared_ptr<const core::BlockScalars> units[2];
    group_memory_floors(
        tree, prefix,
        [&](const parallel::ParallelConfig& cfg) {
          std::shared_ptr<const core::BlockScalars>& unit =
              units[cfg.ring_attention ? 1 : 0];
          if (!unit) unit = caches.unit(mdl, cfg, global_batch);
          return std::max(
              core::memory_floor(mdl, cfg, global_batch, eval),
              core::token_memory_floor(mdl, cfg, global_batch, *unit, eval));
        },
        floors_);
    prefix_min_.push_back(*std::min_element(
        floors_.begin() + static_cast<std::ptrdiff_t>(first_.back()),
        floors_.end()));
    first_.push_back(floors_.size());
  }
}

PointOutcome scan_point(const ScanShared& sh, const hw::SystemConfig& sys,
                        const CandidateTree& tree,
                        const MemoryFloors& floors, std::size_t seed_index,
                        std::size_t seed_prefix, double incumbent,
                        ScanScratch& scratch, ChainContext& chain) {
  const std::int64_t b = sh.opts.search.global_batch;
  const core::EvalOptions& eval = sh.opts.search.eval;
  const std::vector<CandidatePrefix>& prefixes = tree.prefixes();
  const Bytes hbm = sys.gpu.hbm_capacity;
  std::vector<core::PlacementTiming>& timings = scratch.timings;
  PointOutcome out;
  // The stage clock: compile spans inside evaluate, and everything else
  // the scan does (screens, merge, bounds, placement timing, the final
  // classification) is time.
  std::int64_t compile_ns = 0;
  const auto scan_t0 = Clock::now();

  chain.point = chain.point == kNoSeed ? 0 : chain.point + 1;
  chain.entries.resize(tree.size());
  chain.prefixes.resize(prefixes.size());
  chain.fabric = sys.resolved_fabric();
  // Rebind AFTER the fabric assignment: the pricer points at chain.fabric
  // (stable address) and precomputes its per-level terms.
  chain.pricer.rebind(chain.fabric);
  if (chain.point == 0 || !hw::same_roofline(chain.gpu, sys.gpu) ||
      chain.host_bw.value() != sys.host_bandwidth.value()) {
    for (ChainEntry& e : chain.entries) e.lb_ready = 0;
    for (ChainPrefix& cp : chain.prefixes) cp.floor_ready = 0;
    for (ChainBlock& cb : chain.blocks) cb.bound = 0;
    chain.gpu = sys.gpu;
    chain.host_bw = sys.host_bandwidth;
  }

  // A result only escapes scan_point when it is feasible (better_result
  // never prefers an infeasible one, and an all-infeasible point reports
  // the fixed "no feasible configuration" reason), so the scan keeps just
  // the sparse list of feasible results and skips every infeasible store —
  // reasons, cfg copies, a dense per-candidate vector.
  auto& feasible = scratch.feasible;
  feasible.clear();

  // Settle prefix p without expanding it: its leaves with a chain-held
  // tail over HBM are evaluated, the warm seed (screened on its own) is
  // left out, and each (m, ring, ZeRO) group is memory-pruned when its
  // floor is over HBM, else subtree-pruned (see the header for the order).
  std::vector<std::size_t>& settled = scratch.settled;
  const auto settle = [&](std::uint32_t p) {
    const CandidatePrefix& prefix = prefixes[p];
    settled.assign(tree.microbatches(prefix).size() * tree.groups_per_m(prefix),
                   0);
    for (const std::size_t i : chain.prefixes[p].compiled) {
      if (i != seed_index && chain.entries[i].tail->mem.total() > hbm) {
        ++out.signature_reuses;
        ++out.evaluated;
        ++settled[tree.group_of(prefix, i)];
      }
    }
    if (seed_prefix == p) ++settled[tree.group_of(prefix, seed_index)];
    classify_unexpanded(tree, prefix, floors.groups(p), hbm, settled,
                        out.memory_pruned, out.subtree_pruned);
  };

  // Prefix screen: validity per prefix (every leaf of a prefix is valid
  // exactly when the prefix is; the verdict reads only the cluster size, so
  // it survives along the chain, stamped for safety), then the memory
  // screen — a prefix all over HBM is settled here and never enters the
  // merge — and each remaining prefix's floor, finished on this point's
  // fabric.
  PrefixMerge& merge = scratch.merge;
  merge.clear();
  for (std::uint32_t p = 0; p < prefixes.size(); ++p) {
    const parallel::ParallelConfig& cfg = prefixes[p].cfg;
    ChainPrefix& cp = chain.prefixes[p];
    if (cp.screen_n_gpus != sys.n_gpus) {
      cp.valid = cfg.invalid_reason(sh.mdl, sys, b) ? 0 : 1;
      cp.screen_n_gpus = sys.n_gpus;
    }
    if (!cp.valid) continue;
    if (floors.over(p, hbm)) {
      settle(p);
      continue;
    }
    if (!cp.floor_ready) {
      cp.floor_base = core::prefix_floor_base(sh.mdl, sys, cfg, b, eval);
      cp.floor_ready = 1;
    }
    merge.add(p, core::finish_prefix_floor(cp.floor_base, chain.fabric, cfg));
  }
  merge.start();

  // Screen leaf i of valid prefix p; true with its lower bound in `lb`
  // when it joins the scan.
  const auto screen = [&](std::size_t i, std::size_t p, double& lb) {
    ChainEntry& e = chain.entries[i];
    if (e.tail && e.tail->mem.total() > hbm) {
      // A candidate compiled on an earlier point of the chain whose tail
      // exceeds this point's HBM is charged its one capacity probe right
      // here and never enters the scan order — no bounds, no placement
      // lookup, no reduction visit. Relative to find_optimal this moves
      // the candidate from memory_pruned / bound_pruned to evaluated,
      // deterministically and thread-invariantly — chains are sequential —
      // and the optima are untouched: an over-capacity candidate is
      // infeasible under every placement. Served by the chain-held tail
      // (see signature_reuses).
      ++out.signature_reuses;
      ++out.evaluated;
      return false;
    }
    // The memory floor is <= the tail's total, so a leaf over HBM on it is
    // never compiled; the tail check in evaluate stays the exact arbiter
    // for the rest.
    if (Bytes(floors.leaf(tree, p, i)) > hbm) {
      ++out.memory_pruned;
      return false;
    }
    const parallel::ParallelConfig cfg = tree.leaf(prefixes[p], i);
    if (!e.lb_ready) {
      e.lb_base = core::search_bounds_base(sh.mdl, sys, cfg, b, eval);
      e.lb_ready = 1;
    }
    lb = core::finish_search_bounds(e.lb_base, sh.mdl, chain.fabric, cfg)
             .time_floor;
    return true;
  };

  // The warm seed is screened here, once; every later pass skips it.
  std::size_t seed = kNoSeed;
  bool seed_pending = false;
  if (seed_prefix != kNoSeed && chain.prefixes[seed_prefix].valid) {
    seed = seed_index;
    double lb = 0;
    seed_pending = screen(seed, seed_prefix, lb);
  }

  // Evaluate candidate i as tail -> capacity check -> block bind -> floor
  // screen -> placement kernel, returning its achieved iteration time
  // (infinity when infeasible or settled by the placement-floor screen
  // against `cutoff`). State persists along the chain: a candidate's tail
  // is compiled once (and shared across chains through the tail cache),
  // its capacity verdict decided once; a block is bound once per GPU
  // roofline and floor-walked once per point, and every candidate of the
  // block finishes both from those sums with the statements of the
  // one-shot forms, so results are bitwise unchanged. The screen's memory
  // floor already turned away every candidate over HBM but those within
  // its 1e-9 slack; the tail is the exact verdict, and a candidate over
  // capacity never binds its block (better_result never prefers an
  // infeasible result, so only the eval count must match the reference
  // scan). The tail compile and the block lookup and bind are the compile
  // stage; the rest is the time stage.
  const auto evaluate = [&](std::size_t i, std::size_t prefix,
                            double cutoff) -> double {
    const parallel::ParallelConfig cfg = tree.leaf(prefixes[prefix], i);
    ChainEntry& e = chain.entries[i];
    if (!e.tail) {
      const auto compile_t0 = Clock::now();
      e.tail = sh.caches.tails.get(signature_key(cfg), [&] {
        e.block = sh.caches.block(sh.mdl, cfg, b);
        return core::compile_tail(sh.mdl, cfg, b, e.block->bat, eval);
      });
      chain.prefixes[prefix].compiled.push_back(i);
      compile_ns += ns_since(compile_t0);
    } else {
      ++out.signature_reuses;
    }
    const core::SignatureTail& tail = *e.tail;
    if (tail.mem.total() > hbm) {
      // One capacity probe — the candidate's placements are never
      // enumerated, looked up, or timed, so the evaluation counters report
      // the work the scan actually did (the exhaustive reference charges
      // the whole placement set; optima are unaffected either way, only
      // the bookkeeping differs).
      ++out.evaluated;
      return std::numeric_limits<double>::infinity();
    }
    const auto bind_t0 = Clock::now();
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
    compile_ns += ns_since(bind_t0);

    core::EvalResult r;
    std::size_t evals = 0;
    const auto placements = sh.placement_cache.get(cfg, sys.nvs_domain);
    double floor = 0;
    if (cutoff < std::numeric_limits<double>::infinity()) {
      core::CommWalk walk;
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
    if (!r.feasible) return std::numeric_limits<double>::infinity();
    const double t = r.iteration();
    feasible.emplace_back(i, prefix, std::move(r));
    return t;
  };

  // Warm start: re-time the seed first, against the starting incumbent.
  // Its time at THIS point is an achieved iteration time, so using it as
  // the incumbent is exactly as conservative as any other achieved time — a
  // candidate pruned against it satisfies time >= lb > incumbent >= optimum
  // and can neither be nor tie the optimum. The optimum is therefore
  // bitwise-unchanged; only the pruning (and eval counts) tighten.
  if (seed_pending) {
    out.warm_seeded = true;
    const double t = evaluate(seed, seed_prefix, incumbent);
    if (t < incumbent) {
      incumbent = t;
      out.warm_seed_feasible = true;
    }
  }

  // Expanding a prefix screens each of its leaves into the merge.
  const auto expand = [&](std::uint32_t p) {
    tree.for_each_index(prefixes[p], [&](std::size_t i) {
      double lb = 0;
      if (i != seed && screen(i, p, lb)) merge.push(lb, i, p);
    });
  };
  // Leaves in (lb, index) order until the next lb is above the running
  // incumbent: everything left is provably slower than an achieved time
  // (and cannot tie, so the index-order reduction below still picks
  // find_optimal's answer). The placement-floor screen runs against the
  // same running incumbent.
  for (PendingLeaf c; merge.pop(incumbent, expand, c);) {
    const double t = evaluate(c.index, c.prefix, incumbent);
    if (t < incumbent) incumbent = t;
  }

  // What is left is above the incumbent: the expanded leaves one by one,
  // the unexpanded prefixes whole.
  for (const auto& [floor, p] : merge.unexpanded()) settle(p);
  out.bound_pruned = merge.unpopped() + out.subtree_pruned;

  // Reduce in candidate-index order with the shared predicate — the same
  // tie-breaking walk find_optimal performs, so the two agree bitwise even
  // between equal-time configurations. The sparse list visits the same
  // feasible results in the same index order as a dense walk; the dense
  // walk's extra visits are all infeasible, which the predicate never
  // prefers.
  out.best.reason = "no feasible configuration";
  std::sort(feasible.begin(), feasible.end(),
            [](const auto& a, const auto& c) {
              return std::get<0>(a) < std::get<0>(c);
            });
  for (const auto& [i, p, r] : feasible) {
    if (better_result(r, out.best)) {
      out.best = r;
      out.best_index = i;
      out.best_prefix = p;
    }
  }
  sh.compile_ns.fetch_add(compile_ns, std::memory_order_relaxed);
  sh.time_ns.fetch_add(ns_since(scan_t0) - compile_ns,
                       std::memory_order_relaxed);
  return out;
}

}  // namespace tfpe::search
