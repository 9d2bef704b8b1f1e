// Tests for configuration enumeration and the brute-force search (S3).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/lower_bounds.hpp"
#include "hw/topology.hpp"
#include "search/search.hpp"

namespace tfpe::search {
namespace {

hw::SystemConfig b200(std::int64_t nvs, std::int64_t n) {
  return hw::make_system(hw::GpuGeneration::B200, nvs, n);
}

TEST(Enumerate, AllConfigsSatisfyConstraints) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 512);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.invalid_reason(mdl, sys, 4096), std::nullopt)
        << c.describe();
    EXPECT_EQ(c.total_gpus(), 512);
    EXPECT_EQ(c.n2, 1);
  }
}

TEST(Enumerate, CoversAllFactorizations) {
  // 1D TP over 64 GPUs: every (nt, np, nd) triple with nt*np*nd = 64 whose
  // divisibility holds must be present for every valid m.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 64);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 64;
  opts.fixed_m = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
  for (const auto& c : configs) seen.insert({c.n1, c.np, c.nd});
  // nt in {1..32} (64 does not divide heads=160), np in divisors of 64 that
  // divide depth=128 (all of them), nd | 64.
  std::size_t expected = 0;
  for (std::int64_t nt : {1, 2, 4, 8, 16, 32}) {
    for (std::int64_t np = 1; nt * np <= 64; np *= 2) {
      const std::int64_t nd = 64 / (nt * np);
      if (nt * np * nd == 64) ++expected;
    }
  }
  EXPECT_EQ(seen.size(), expected);
}

TEST(Enumerate, FixedFactorsRespected) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 1024);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  opts.fixed_np = 16;
  opts.fixed_local_microbatch = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  EXPECT_FALSE(configs.empty());
  for (const auto& c : configs) {
    EXPECT_EQ(c.np, 16);
    EXPECT_EQ(c.local_microbatch(4096), 1);
  }
}

TEST(Enumerate, SummaGeneratesPanelVariants) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 64);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 64;
  opts.fixed_n1 = 4;
  opts.fixed_n2 = 4;
  opts.fixed_np = 1;
  opts.fixed_m = 1;
  const auto configs = enumerate_parallel(mdl, sys, opts);
  std::set<std::int64_t> nbs;
  for (const auto& c : configs) nbs.insert(c.nb);
  EXPECT_EQ(nbs, (std::set<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(Enumerate, NonSummaHasSinglePanel) {
  const auto mdl = model::gpt3_1t();
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP2D;
  opts.global_batch = 64;
  const auto configs = enumerate_parallel(mdl, b200(8, 64), opts);
  for (const auto& c : configs) EXPECT_EQ(c.nb, 1);
}

TEST(Placements, AllValidAndNonDominated) {
  parallel::ParallelConfig c;
  c.n1 = 8;
  c.n2 = 1;
  c.np = 16;
  c.nd = 4;
  const auto pls = enumerate_placements(c, 8);
  EXPECT_FALSE(pls.empty());
  for (const auto& p : pls) {
    EXPECT_EQ(c.n1 % p[0], 0);
    EXPECT_EQ(c.n2 % p[1], 0);
    EXPECT_EQ(c.np % p[2], 0);
    EXPECT_EQ(c.nd % p[3], 0);
    EXPECT_LE(p[0] * p[1] * p[2] * p[3], 8);
  }
  // Dominated check: no pair where one placement >= the other everywhere.
  for (const auto& a : pls) {
    for (const auto& b : pls) {
      if (&a == &b) continue;
      const bool dominates = a[0] >= b[0] && a[1] >= b[1] && a[2] >= b[2] &&
                             a[3] >= b[3] &&
                             (a[0] > b[0] || a[1] > b[1] || a[2] > b[2] ||
                              a[3] > b[3]);
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Placements, FullTpPackingAvailable) {
  parallel::ParallelConfig c;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  const auto pls = enumerate_placements(c, 8);
  bool has_full_tp = false;
  for (const auto& p : pls) {
    if (p[0] == 8) has_full_tp = true;
  }
  EXPECT_TRUE(has_full_tp);
}

TEST(FindOptimal, BeatsEveryManualConfig) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  const SearchResult res = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(res.best.feasible);
  EXPECT_GT(res.evaluated, 0u);
  EXPECT_GT(res.feasible, 0u);
  // Spot-check against a handful of manual configurations.
  for (std::int64_t nt : {1, 2, 4, 8}) {
    for (std::int64_t np : {1, 2, 4, 8}) {
      parallel::ParallelConfig c;
      c.strategy = parallel::TpStrategy::TP1D;
      c.n1 = nt;
      c.np = np;
      c.nd = 64 / (nt * np);
      c.microbatches = 256 / c.nd;
      const auto r = best_placement(mdl, sys, c, 256);
      if (r.feasible) {
        EXPECT_LE(res.best.iteration(), r.iteration() * (1 + 1e-12))
            << c.describe();
      }
    }
  }
}

TEST(FindOptimal, DeterministicAcrossThreadCounts) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.threads = 1;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.threads = 8;
  const SearchResult b = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(a.best.feasible && b.best.feasible);
  EXPECT_DOUBLE_EQ(a.best.iteration(), b.best.iteration());
  EXPECT_EQ(a.best.cfg.describe(), b.best.cfg.describe());
  EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(FindOptimal, GreedyPlacementFallback) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  opts.search_placement = false;
  const SearchResult res = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(res.best.feasible);
  // With placement search the result can only improve.
  opts.search_placement = true;
  const SearchResult full = find_optimal(mdl, sys, opts);
  EXPECT_LE(full.best.iteration(), res.best.iteration() * (1 + 1e-12));
}

// --- Prune-and-memoize engine (branch-and-bound + caches) ---

void expect_same_optimum(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.best.feasible, b.best.feasible);
  if (!a.best.feasible) return;
  EXPECT_EQ(a.best.cfg.describe(), b.best.cfg.describe());
  EXPECT_EQ(a.best.iteration(), b.best.iteration());  // bitwise
  EXPECT_EQ(a.best.mem.total(), b.best.mem.total());
}

TEST(Pruning, MatchesExhaustiveOnGpt3175b) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  expect_same_optimum(pruned, brute);
  // The engine must actually prune, and share op lists across candidates:
  // >= 5x fewer build_layer invocations than one-per-candidate.
  EXPECT_GT(pruned.stats.bound_pruned + pruned.stats.memory_pruned, 0u);
  EXPECT_LE(pruned.stats.build_layer_calls * 5, brute.stats.build_layer_calls);
  EXPECT_LT(pruned.evaluated, brute.evaluated);
}

TEST(Pruning, MatchesExhaustiveOnVit32k) {
  // 2D TP with the ring/interleave expansion axes on the comm-heavy ViT.
  const auto mdl = model::vit_32k();
  const auto sys = b200(8, 256);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP2D;
  opts.global_batch = 4096;
  opts.allow_ring_attention = true;
  opts.interleave_candidates = {1, 2};
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  expect_same_optimum(pruned, brute);
  EXPECT_LE(pruned.stats.build_layer_calls * 5, brute.stats.build_layer_calls);
}

TEST(Pruning, CountersInvariantAcrossThreadCounts) {
  // Round-barrier pruning makes the work counters — not just the optimum —
  // independent of the thread count.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  opts.threads = 1;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.threads = 8;
  const SearchResult b = find_optimal(mdl, sys, opts);
  expect_same_optimum(a, b);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.stats.bound_pruned, b.stats.bound_pruned);
  EXPECT_EQ(a.stats.memory_pruned, b.stats.memory_pruned);
  EXPECT_EQ(a.stats.build_layer_calls, b.stats.build_layer_calls);
  EXPECT_EQ(a.stats.layer_cache_hits, b.stats.layer_cache_hits);
  EXPECT_EQ(a.stats.placement_sets, b.stats.placement_sets);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.placement_floor_pruned, b.stats.placement_floor_pruned);
}

TEST(Pruning, TopKRankingUnaffected) {
  // top_k > 0 bypasses incumbent pruning; the ranking must match the
  // brute-force sweep exactly.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  opts.top_k = 5;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult pruned = find_optimal(mdl, sys, opts);
  ASSERT_EQ(pruned.top.size(), brute.top.size());
  for (std::size_t i = 0; i < brute.top.size(); ++i) {
    EXPECT_EQ(pruned.top[i].cfg.describe(), brute.top[i].cfg.describe());
    EXPECT_EQ(pruned.top[i].iteration(), brute.top[i].iteration());
  }
}

TEST(Pruning, RoundSizeDoesNotChangeOptimum) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.round_size = 1;
  const SearchResult b = find_optimal(mdl, sys, opts);
  opts.round_size = 100000;
  const SearchResult c = find_optimal(mdl, sys, opts);
  expect_same_optimum(a, b);
  expect_same_optimum(a, c);
  // A single all-candidate round cannot prune anything after the barrier.
  EXPECT_GE(b.stats.bound_pruned, c.stats.bound_pruned);
}

// --- Batched placement scan vs the exhaustive reference ---

void expect_same_work(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.bound_pruned, b.stats.bound_pruned);
  EXPECT_EQ(a.stats.memory_pruned, b.stats.memory_pruned);
  EXPECT_EQ(a.stats.build_layer_calls, b.stats.build_layer_calls);
  EXPECT_EQ(a.stats.layer_cache_hits, b.stats.layer_cache_hits);
  EXPECT_EQ(a.stats.placement_sets, b.stats.placement_sets);
  EXPECT_EQ(a.stats.placement_cache_hits, b.stats.placement_cache_hits);
  EXPECT_EQ(a.stats.signature_compiles, b.stats.signature_compiles);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

void expect_same_ranking(const std::vector<core::EvalResult>& got,
                         const std::vector<core::EvalResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].cfg.describe(), want[i].cfg.describe()) << "rank " << i;
    EXPECT_EQ(got[i].iteration(), want[i].iteration()) << "rank " << i;
    EXPECT_EQ(got[i].mem.total(), want[i].mem.total()) << "rank " << i;
  }
}

/// The pruned engine (batched placement scan, one pricer per worker)
/// against the exhaustive sweep, which evaluates every placement through
/// the independent evaluate_with_layer path: same optimum, top-5 ranking
/// and Pareto frontier bit for bit, and the same work at 1 and 4 threads.
void expect_batched_matches_exhaustive(const model::TransformerConfig& mdl,
                                       const hw::SystemConfig& sys,
                                       parallel::TpStrategy strategy,
                                       std::int64_t batch) {
  SearchOptions opts;
  opts.strategy = strategy;
  opts.global_batch = batch;
  opts.nb_candidates = {1, 4};  // SUMMA panels; keeps the sanitizer run short
  opts.threads = 4;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  const auto brute_front = pareto_frontier(mdl, sys, opts);
  opts.top_k = 5;
  const SearchResult brute_top = find_optimal(mdl, sys, opts);

  opts.prune = true;
  const SearchResult top = find_optimal(mdl, sys, opts);
  expect_same_ranking(top.top, brute_top.top);
  expect_same_ranking(pareto_frontier(mdl, sys, opts), brute_front);

  opts.top_k = 0;
  const SearchResult four = find_optimal(mdl, sys, opts);
  opts.threads = 1;
  const SearchResult one = find_optimal(mdl, sys, opts);
  EXPECT_TRUE(brute.best.feasible);
  expect_same_optimum(one, brute);
  expect_same_optimum(four, brute);
  expect_same_work(one, four);
}

TEST(FindOptimal, BatchedEngineMatchesExhaustive) {
  // 4-GPU fast domains under 8-GPU leaves, so the optima's groups cross
  // the leaf tier and the three fabrics price them differently.
  const auto mdl = model::gpt3_175b();
  constexpr std::int64_t kGpus = 256;
  for (auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                   hw::GpuGeneration::B200}) {
    const hw::SystemConfig base = hw::make_system(gen, 4, kGpus);
    std::vector<std::pair<const char*, hw::Topology>> fabrics = {
        {"two-level", {}},
        {"leaf_spine", hw::leaf_spine_topology(base.net, 4, 8, kGpus, 4.0)},
        {"rail_optimized",
         hw::rail_optimized_topology(base.net, 4, 8, kGpus)}};
    for (const auto& [fabric_name, fabric] : fabrics) {
      hw::SystemConfig sys = base;
      sys.fabric = fabric;
      for (auto strategy :
           {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
            parallel::TpStrategy::Summa2D}) {
        SCOPED_TRACE(sys.gpu.name + " " + fabric_name + " " +
                     parallel::to_string(strategy));
        expect_batched_matches_exhaustive(mdl, sys, strategy, 512);
      }
    }
  }

  // A 40 GB system where candidates pass the placement-free memory floor
  // but compile over capacity: those get a direct infeasible result, which
  // must keep the one-probe eval charge and leave the optimum alone.
  hw::SystemConfig small = hw::make_system(hw::GpuGeneration::A100, 4, kGpus);
  small.gpu = small.gpu.with_memory(Bytes(40e9), small.gpu.hbm_bandwidth);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  std::size_t over_capacity = 0;
  std::size_t screened_evals = 0;  // one probe per over-capacity candidate
  for (const auto& cfg : expand_candidates(mdl, small, opts)) {
    if (cfg.invalid_reason(mdl, small, opts.global_batch)) continue;
    const auto bounds =
        core::search_bounds(mdl, small, cfg, opts.global_batch);
    if (Bytes(bounds.memory_floor) > small.gpu.hbm_capacity) continue;
    const auto sig = core::compile_signature(mdl, cfg, opts.global_batch);
    if (sig.mem.total() > small.gpu.hbm_capacity) {
      ++over_capacity;
      ++screened_evals;
    } else {
      screened_evals += enumerate_placements(cfg, small.nvs_domain).size();
    }
  }
  EXPECT_GT(over_capacity, 0u);
  // A ranking search has no incumbent, so every screened candidate is
  // evaluated and the eval count is exactly the tally above.
  SearchOptions ranked = opts;
  ranked.top_k = 1;
  EXPECT_EQ(find_optimal(mdl, small, ranked).evaluated, screened_evals);
  SCOPED_TRACE("A100 40 GB two-level 1D TP");
  expect_batched_matches_exhaustive(mdl, small, opts.strategy,
                                    opts.global_batch);
}

void expect_bitwise(const core::EvalResult& a, const core::EvalResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.cfg.describe(), b.cfg.describe());
  EXPECT_EQ(a.cfg.nvs1, b.cfg.nvs1);
  EXPECT_EQ(a.cfg.nvs2, b.cfg.nvs2);
  EXPECT_EQ(a.cfg.nvsp, b.cfg.nvsp);
  EXPECT_EQ(a.cfg.nvsd, b.cfg.nvsd);
  EXPECT_EQ(a.time.compute, b.time.compute);
  EXPECT_EQ(a.time.memory, b.time.memory);
  EXPECT_EQ(a.time.tp_comm, b.time.tp_comm);
  EXPECT_EQ(a.time.pp_comm, b.time.pp_comm);
  EXPECT_EQ(a.time.dp_comm, b.time.dp_comm);
  EXPECT_EQ(a.time.bubble, b.time.bubble);
  EXPECT_EQ(a.time.optimizer, b.time.optimizer);
  EXPECT_EQ(a.mem.weights, b.mem.weights);
  EXPECT_EQ(a.mem.gradients, b.mem.gradients);
  EXPECT_EQ(a.mem.optimizer, b.mem.optimizer);
  EXPECT_EQ(a.mem.activations, b.mem.activations);
  EXPECT_EQ(a.mem.kv_cache, b.mem.kv_cache);
  EXPECT_EQ(a.t_fwd_micro, b.t_fwd_micro);
  EXPECT_EQ(a.t_bwd_micro, b.t_bwd_micro);
}

TEST(PlacementFloorScreen, KeepsEveryExistingCounterOnSumma) {
  // GPT3-1T on 4096 B200s with SUMMA: the screen settles candidates the
  // kernel used to time, while every counter that existed before it —
  // placements accounted for, bound and memory prunes, rounds, compiles,
  // op-list builds, placement sets — stays at its pre-screen value.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 4096);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 4096;
  const SearchResult r = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(r.best.feasible);
  EXPECT_EQ(r.evaluated, 89240u);
  EXPECT_EQ(r.stats.bound_pruned, 5470u);
  EXPECT_EQ(r.stats.memory_pruned, 700u);
  EXPECT_EQ(r.stats.rounds, 143u);
  EXPECT_EQ(r.stats.signature_compiles, 9135u);
  EXPECT_EQ(r.stats.build_layer_calls, 2055u);
  EXPECT_EQ(r.stats.placement_sets, 290u);
  EXPECT_GT(r.stats.placement_floor_pruned, 0u);
}

TEST(PlacementFloorScreen, CounterInvariantAcrossThreadCounts) {
  // The screen cuts against the round's barrier incumbent, so what it
  // settles does not depend on which worker finished first.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 1024);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 4096;
  opts.threads = 1;
  const SearchResult a = find_optimal(mdl, sys, opts);
  opts.threads = 4;
  const SearchResult b = find_optimal(mdl, sys, opts);
  expect_same_optimum(a, b);
  EXPECT_GT(a.stats.placement_floor_pruned, 0u);
  EXPECT_EQ(a.stats.placement_floor_pruned, b.stats.placement_floor_pruned);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.feasible, b.feasible);
}

TEST(PlacementFloorScreen, OffWhereEveryCandidateMustBeTimed) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 512;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult screened = find_optimal(mdl, sys, opts);
  ASSERT_GT(screened.stats.placement_floor_pruned, 0u);
  expect_same_optimum(screened, brute);

  // top-k ranking keeps every feasible candidate: no screen.
  opts.top_k = 3;
  const SearchResult top = find_optimal(mdl, sys, opts);
  EXPECT_EQ(top.stats.placement_floor_pruned, 0u);
  expect_same_optimum(top, brute);
  opts.top_k = 0;

  // The Pareto frontier also inspects every feasible candidate; it matches
  // the exhaustive engine's frontier entry for entry.
  opts.prune = false;
  const auto front_brute = pareto_frontier(mdl, sys, opts);
  opts.prune = true;
  const auto front = pareto_frontier(mdl, sys, opts);
  ASSERT_EQ(front.size(), front_brute.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_TRUE(same_optimum(front[i], front_brute[i])) << i;
  }

  // Above full overlap the floor is not a bound, and outside [0, 1] the
  // options are nonsense: both entry points reject them before any work.
  for (const double bad : {1.5, -0.1, std::nan("")}) {
    opts.eval.tp_overlap = bad;
    EXPECT_THROW(find_optimal(mdl, sys, opts), std::invalid_argument) << bad;
    EXPECT_THROW(pareto_frontier(mdl, sys, opts), std::invalid_argument)
        << bad;
  }
}

/// The batched scan (one time_placements_batch call over the whole set),
/// and the whole-signature scan_placements_signature over it, against the
/// oracle scan (one evaluate_with_layer per placement, the best kept by
/// better_result): the same result bit for bit and the same evals charge,
/// on a feasible multi-placement candidate, an over-HBM candidate under
/// both stop modes, an invalid config and an empty placement list.
TEST(Search, BatchedScanMatchesOracleScan) {
  const auto mdl = model::gpt3_175b();
  const core::EvalOptions eval;
  constexpr std::int64_t kBatch = 512;
  const auto check = [&](const hw::SystemConfig& sys,
                         parallel::ParallelConfig cfg,
                         const std::vector<std::array<std::int64_t, 4>>& pls,
                         bool stop_after_infeasible) {
    const parallel::LayerCost layer =
        parallel::build_layer(mdl, cfg, cfg.local_microbatch(kBatch));
    const auto sig = core::compile_signature(mdl, cfg, kBatch, layer, eval);
    const auto bat = core::lower_batched(sig);
    std::size_t batched_evals = 0;
    core::BatchScratch scratch;
    std::vector<core::PlacementTiming> timings;
    const core::EvalResult batched = scan_placements_batch(
        mdl, sys, cfg, kBatch, sig, bat,
        core::bind_system_batched(sig, bat, sys, eval), pls, eval,
        batched_evals, stop_after_infeasible, scratch, timings);
    std::size_t whole_evals = 0;
    const core::EvalResult whole = scan_placements_signature(
        mdl, sys, cfg, kBatch, sig, core::bind_system(sig, sys, eval), pls,
        eval, whole_evals, stop_after_infeasible);

    core::EvalResult oracle;
    oracle.cfg = cfg;
    oracle.reason = "no valid placement";
    std::size_t oracle_evals = 0;
    for (const auto& pl : pls) {
      cfg.nvs1 = pl[0];
      cfg.nvs2 = pl[1];
      cfg.nvsp = pl[2];
      cfg.nvsd = pl[3];
      const core::EvalResult r =
          core::evaluate_with_layer(mdl, sys, cfg, kBatch, layer, eval);
      ++oracle_evals;
      if (better_result(r, oracle)) oracle = r;
      if (!r.feasible) {
        if (!oracle.feasible) oracle = r;
        if (stop_after_infeasible) break;
      }
    }
    EXPECT_EQ(oracle_evals, batched_evals);
    EXPECT_EQ(oracle_evals, whole_evals);
    expect_bitwise(oracle, batched);
    expect_bitwise(oracle, whole);
    return oracle;
  };
  // First valid candidate with more than one placement whose compiled
  // footprint fits (or, with want_fit = false, exceeds) the system's HBM.
  const auto pick = [&](const hw::SystemConfig& sys, bool want_fit) {
    SearchOptions opts;
    opts.strategy = parallel::TpStrategy::TP1D;
    opts.global_batch = kBatch;
    for (const auto& cfg : expand_candidates(mdl, sys, opts)) {
      if (cfg.invalid_reason(mdl, sys, kBatch)) continue;
      if (enumerate_placements(cfg, sys.nvs_domain).size() < 2) continue;
      const auto sig = core::compile_signature(mdl, cfg, kBatch, eval);
      if ((sig.mem.total() <= sys.gpu.hbm_capacity) == want_fit) return cfg;
    }
    ADD_FAILURE() << "no candidate with want_fit=" << want_fit;
    return parallel::ParallelConfig{};
  };

  const hw::SystemConfig big = b200(8, 256);
  const parallel::ParallelConfig fits = pick(big, true);
  const auto fit_pls = enumerate_placements(fits, big.nvs_domain);
  {
    SCOPED_TRACE("feasible");
    EXPECT_TRUE(check(big, fits, fit_pls, true).feasible);
  }

  hw::SystemConfig small = hw::make_system(hw::GpuGeneration::A100, 4, 256);
  small.gpu = small.gpu.with_memory(Bytes(40e9), small.gpu.hbm_bandwidth);
  const parallel::ParallelConfig over = pick(small, false);
  const auto over_pls = enumerate_placements(over, small.nvs_domain);
  for (bool stop : {true, false}) {
    SCOPED_TRACE(stop ? "over HBM, stop" : "over HBM, full");
    const core::EvalResult r = check(small, over, over_pls, stop);
    EXPECT_EQ(r.reason, "exceeds HBM capacity");
  }

  {
    // The 256-GPU candidate on a 128-GPU system: fails divisibility.
    SCOPED_TRACE("invalid");
    const hw::SystemConfig half = b200(8, 128);
    ASSERT_TRUE(fits.invalid_reason(mdl, half, kBatch).has_value());
    EXPECT_FALSE(check(half, fits, fit_pls, true).feasible);
  }

  {
    SCOPED_TRACE("no placements");
    EXPECT_EQ(check(big, fits, {}, true).reason, "no valid placement");
  }
}

// Property test for the analytic bounds: the floors must never exceed the
// achieved iteration time / HBM footprint of any valid configuration,
// across strategies, models (incl. MoE) and the expansion axes.
TEST(LowerBounds, FloorsNeverExceedActuals) {
  struct Case {
    model::TransformerConfig mdl;
    hw::SystemConfig sys;
    parallel::TpStrategy strategy;
    std::int64_t batch;
  };
  const Case cases[] = {
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::TP1D, 256},
      {model::vit_32k(), b200(8, 64), parallel::TpStrategy::TP2D, 4096},
      {model::gpt_moe_1t(), b200(8, 64), parallel::TpStrategy::TP1D, 256},
  };
  for (const auto& cs : cases) {
    EnumerationOptions eopts;
    eopts.strategy = cs.strategy;
    eopts.global_batch = cs.batch;
    const auto base = enumerate_parallel(cs.mdl, cs.sys, eopts);
    ASSERT_FALSE(base.empty());
    std::size_t checked = 0;
    const std::size_t step = std::max<std::size_t>(1, base.size() / 32);
    for (std::size_t i = 0; i < base.size(); i += step) {
      // Exercise the plain config plus the ZeRO-3 / ring / interleave
      // variants the search expands into.
      std::vector<parallel::ParallelConfig> variants{base[i]};
      variants.push_back(base[i]);
      variants.back().zero = parallel::ZeroStage::kWeights;
      if (base[i].n2 > 1 &&
          cs.mdl.attention != model::AttentionKind::kLinear) {
        variants.push_back(base[i]);
        variants.back().ring_attention = true;
      }
      if (base[i].np > 1 && (cs.mdl.depth / base[i].np) % 2 == 0) {
        variants.push_back(base[i]);
        variants.back().interleave = 2;
      }
      for (const auto& cfg : variants) {
        auto valid = cfg;
        valid.nvs1 = valid.nvs2 = valid.nvsp = valid.nvsd = 1;
        if (valid.invalid_reason(cs.mdl, cs.sys, cs.batch)) continue;
        const auto bounds =
            core::search_bounds(cs.mdl, cs.sys, cfg, cs.batch);
        const auto r = best_placement(cs.mdl, cs.sys, cfg, cs.batch);
        if (!r.feasible) {
          continue;  // memory floor <= actual is only meaningful if it fits
        }
        ++checked;
        EXPECT_LE(bounds.time_floor, r.iteration() * (1 + 1e-9))
            << cfg.describe();
        EXPECT_LE(bounds.memory_floor, r.mem.total().value() * (1 + 1e-9))
            << cfg.describe();
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

TEST(FindOptimal, ReportsInfeasibleWhenNothingFits) {
  // 1D TP cannot fit the ViT-64K on a single A100 node.
  const auto mdl = model::vit_64k();
  const auto sys = hw::make_system(hw::GpuGeneration::A100, 4, 4);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  const SearchResult res = find_optimal(mdl, sys, opts);
  EXPECT_FALSE(res.best.feasible);
  EXPECT_FALSE(res.best.reason.empty());
}

}  // namespace
}  // namespace tfpe::search
