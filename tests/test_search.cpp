// Tests for configuration enumeration and the brute-force search (S3).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <ranges>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/lower_bounds.hpp"
#include "hw/topology.hpp"
#include "model/shape_family.hpp"
#include "search/point_scan.hpp"
#include "search/search.hpp"
#include "util/math.hpp"

namespace tfpe::search {
namespace {

hw::SystemConfig b200(std::int64_t nvs, std::int64_t n) {
  return hw::make_system(hw::GpuGeneration::B200, nvs, n);
}

/// The first 8-expert member of GPT3-1T's iso-parameter shape family: the
/// kind of MoE shape the co-design scan spends its time on.
model::TransformerConfig moe_family_shape() {
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.04;
  fam.head_dims = {128};
  fam.moe_experts = {8};
  const auto moe = model::shape_family(model::gpt3_1t(), fam);
  if (moe.empty() || moe.front().moe_experts != 8) {
    throw std::logic_error("no 8-expert GPT3-1T family shape");
  }
  return moe.front();
}

TEST(Enumerate, AllConfigsSatisfyConstraints) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 512);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  const auto configs = expand_candidates(mdl, sys, opts);
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
  const auto configs = expand_candidates(mdl, sys, opts);
  std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
  for (const auto& c : configs) {
    if (c.microbatches == 1) seen.insert({c.n1, c.np, c.nd});
  }
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

TEST(Enumerate, SummaGeneratesPanelVariants) {
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 64);
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 64;
  const auto configs = expand_candidates(mdl, sys, opts);
  std::set<std::int64_t> nbs;
  for (const auto& c : configs) {
    if (c.n1 == 4 && c.n2 == 4 && c.np == 1 && c.microbatches == 1) {
      nbs.insert(c.nb);
    }
  }
  EXPECT_EQ(nbs, (std::set<std::int64_t>{1, 2, 4, 8, 16}));
}

TEST(Enumerate, NonSummaHasSinglePanel) {
  const auto mdl = model::gpt3_1t();
  EnumerationOptions opts;
  opts.strategy = parallel::TpStrategy::TP2D;
  opts.global_batch = 64;
  const auto configs = expand_candidates(mdl, b200(8, 64), opts);
  for (const auto& c : configs) EXPECT_EQ(c.nb, 1);
}

/// The parallelization + expansion loops as they were written before the
/// candidate tree existed: n1 -> n2 -> np -> m -> nb, then interleave ->
/// ring -> ZeRO. The tree's flattening must reproduce this order exactly;
/// it is the index order the engines tie-break on.
std::vector<parallel::ParallelConfig> reference_candidates(
    const model::TransformerConfig& mdl, std::int64_t n,
    const EnumerationOptions& opts) {
  std::vector<parallel::ParallelConfig> out;
  const bool summa = opts.strategy == parallel::TpStrategy::Summa2D;
  if (mdl.is_moe() && summa) return out;
  std::vector<std::int64_t> nbs = opts.nb_candidates;
  if (!summa) {
    nbs = {1};
  } else if (nbs.empty()) {
    nbs = {1, 2, 4, 8, 16};
  }
  std::vector<std::int64_t> vs = opts.interleave_candidates;
  if (vs.empty()) vs = {1};
  const std::int64_t b = opts.global_batch;
  for (std::int64_t n1 : util::divisors(n)) {
    if (mdl.heads % n1 || mdl.hidden % n1 || mdl.embed % n1) continue;
    if (mdl.kv_heads_or_default() % n1) continue;
    for (std::int64_t n2 : util::divisors(n / n1)) {
      if (opts.strategy == parallel::TpStrategy::TP1D && n2 != 1) continue;
      if (mdl.seq_len % (n1 * n2)) continue;
      if (summa && (mdl.embed % n2 || mdl.hidden % n2)) continue;
      for (std::int64_t np : util::divisors(n / n1 / n2)) {
        if (mdl.depth % np) continue;
        const std::int64_t nd = n / n1 / n2 / np;
        if (b % nd) continue;
        if (mdl.is_moe() &&
            (nd <= mdl.moe_experts ? mdl.moe_experts % nd != 0
                                   : nd % mdl.moe_experts != 0)) {
          continue;
        }
        for (std::int64_t m : util::divisors(b / nd)) {
          for (std::int64_t nb : nbs) {
            if (summa && (mdl.embed % nb || mdl.hidden % nb)) continue;
            for (std::int64_t v : vs) {
              if (v > 1 && (np <= 1 || (mdl.depth / np) % v != 0)) continue;
              parallel::ParallelConfig cfg;
              cfg.strategy = opts.strategy;
              cfg.n1 = n1;
              cfg.n2 = n2;
              cfg.np = np;
              cfg.nd = nd;
              cfg.microbatches = m;
              cfg.nb = nb;
              cfg.interleave = v;
              const bool ring_ok =
                  opts.allow_ring_attention && n2 > 1 &&
                  mdl.attention != model::AttentionKind::kLinear;
              for (int ring = 0; ring <= (ring_ok ? 1 : 0); ++ring) {
                cfg.ring_attention = ring != 0;
                out.push_back(cfg);
                if (opts.allow_zero3) {
                  cfg.zero = parallel::ZeroStage::kWeights;
                  out.push_back(cfg);
                  cfg.zero = parallel::ZeroStage::kOptimizer;
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(Enumerate, TreeFlattenMatchesReference) {
  constexpr std::int64_t kGpus = 256;
  const hw::SystemConfig sys = b200(8, kGpus);
  std::size_t checked = 0;
  for (const auto& mdl :
       {model::gpt3_1t(), model::vit_64k(), model::gpt_moe_1t()}) {
    for (auto strategy :
         {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
          parallel::TpStrategy::Summa2D}) {
      for (const bool extensions : {false, true}) {
        SCOPED_TRACE(mdl.name + " " + parallel::to_string(strategy) +
                     (extensions ? " v/ZeRO-3/ring" : ""));
        EnumerationOptions opts;
        opts.strategy = strategy;
        opts.global_batch = 512;
        if (extensions) {
          opts.interleave_candidates = {1, 2, 4, 8};
          opts.allow_zero3 = true;
          opts.allow_ring_attention = true;
        }
        const auto want = reference_candidates(mdl, kGpus, opts);
        const auto got = expand_candidates(mdl, sys, opts);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(CandidateTree(mdl, kGpus, opts).size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].describe(), want[i].describe()) << "index " << i;
          ASSERT_EQ(got[i].strategy, want[i].strategy) << "index " << i;
        }
        checked += want.size();
      }
    }
  }
  EXPECT_GT(checked, 0u);
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

/// The placement frontier by brute force: every divisor tuple within the
/// budget, an all-pairs dominance filter, sorted ascending.
std::vector<std::array<std::int64_t, 4>> all_pairs_placements(
    const parallel::ParallelConfig& c, std::int64_t nvs) {
  const auto d1 = util::divisors(c.n1), d2 = util::divisors(c.n2),
             dp = util::divisors(c.np), dd = util::divisors(c.nd);
  std::vector<std::array<std::int64_t, 4>> all;
  for (std::int64_t a1 : d1) {
    for (std::int64_t a2 : d2) {
      for (std::int64_t ap : dp) {
        for (std::int64_t ad : dd) {
          if (a1 <= nvs && a2 <= nvs && ap <= nvs && ad <= nvs &&
              a1 * a2 * ap * ad <= nvs) {
            all.push_back({a1, a2, ap, ad});
          }
        }
      }
    }
  }
  std::vector<std::array<std::int64_t, 4>> keep;
  for (const auto& a : all) {
    bool dominated = false;
    for (const auto& b : std::views::reverse(all)) {  // big ones first
      if (b != a && b[0] >= a[0] && b[1] >= a[1] && b[2] >= a[2] &&
          b[3] >= a[3]) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(a);
  }
  std::sort(keep.begin(), keep.end());
  return keep;
}

TEST(Placements, MatchAllPairsReference) {
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 1; n <= 72; ++n) sizes.push_back(n);
  sizes.push_back(96);
  for (std::int64_t n = 128; n <= 4096; n *= 2) sizes.push_back(n);
  sizes.push_back(65521);   // prime
  sizes.push_back(720720);  // 240 divisors
  std::vector<std::int64_t> budgets{0};
  for (std::int64_t nvs = 1; nvs <= 64; ++nvs) budgets.push_back(nvs);
  budgets.push_back(128);
  budgets.push_back(std::int64_t{1} << 20);

  std::size_t compared = 0, nonempty = 0;
  const auto check = [&](const std::array<std::int64_t, 4>& n,
                         std::int64_t nvs) {
    parallel::ParallelConfig c;
    c.n1 = n[0];
    c.n2 = n[1];
    c.np = n[2];
    c.nd = n[3];
    const auto got = enumerate_placements(c, nvs);
    ASSERT_EQ(got, all_pairs_placements(c, nvs))
        << n[0] << "x" << n[1] << "x" << n[2] << "x" << n[3] << " nvs " << nvs;
    ++compared;
    nonempty += !got.empty();
  };
  // Each size in each group, the other three groups taking these in turn.
  const std::vector<std::array<std::int64_t, 3>> others{
      {1, 1, 1}, {2, 3, 4}, {6, 8, 5}, {16, 1, 9}};
  std::size_t turn = 0;
  for (std::int64_t nvs : budgets) {
    for (std::size_t g = 0; g < 4; ++g) {
      for (std::int64_t n : sizes) {
        const auto& o = others[turn++ % others.size()];
        std::array<std::int64_t, 4> groups{};
        for (std::size_t i = 0, j = 0; i < 4; ++i) {
          groups[i] = i == g ? n : o[j++];
        }
        check(groups, nvs);
      }
    }
  }
  // Every group mixed: all 4-tuples of a smaller set.
  const std::vector<std::int64_t> mixed{1, 2, 3, 4, 12, 18};
  for (std::int64_t nvs : {0, 1, 2, 3, 4, 6, 8, 9, 12, 16, 24, 36, 64, 128,
                           1 << 20}) {
    for (std::int64_t n1 : mixed) {
      for (std::int64_t n2 : mixed) {
        for (std::int64_t np : mixed) {
          for (std::int64_t nd : mixed) check({n1, n2, np, nd}, nvs);
        }
      }
    }
  }
  EXPECT_GT(nonempty, compared / 2);
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

TEST(Pruning, MatchesExhaustiveOnMoe) {
  // The MoE expert MLP terms of the candidate and prefix floors bound-prune
  // MoE candidates that the placement-floor screen used to settle; the
  // optimum must not move, on 1D and 2D (R over n2) alike.
  const auto mdl = moe_family_shape();
  const auto sys = b200(8, 64);
  for (auto strategy :
       {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D}) {
    SCOPED_TRACE(parallel::to_string(strategy));
    SearchOptions opts;
    opts.strategy = strategy;
    opts.global_batch = 256;
    opts.prune = false;
    const SearchResult brute = find_optimal(mdl, sys, opts);
    opts.prune = true;
    const SearchResult pruned = find_optimal(mdl, sys, opts);
    ASSERT_TRUE(brute.best.feasible);
    expect_same_optimum(pruned, brute);
    EXPECT_GT(pruned.stats.bound_pruned, 0u);
    EXPECT_LT(pruned.evaluated, brute.evaluated);
  }
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
  EXPECT_EQ(a.stats.subtree_pruned, b.stats.subtree_pruned);
  EXPECT_EQ(a.stats.memory_pruned, b.stats.memory_pruned);
  EXPECT_EQ(a.stats.build_layer_calls, b.stats.build_layer_calls);
  EXPECT_EQ(a.stats.layer_cache_hits, b.stats.layer_cache_hits);
  EXPECT_EQ(a.stats.placement_sets, b.stats.placement_sets);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.placement_floor_pruned, b.stats.placement_floor_pruned);
}

TEST(Pruning, TopKRankingUnaffected) {
  // top_k > 0 prunes against the k-th best achieved time, strictly, so
  // every candidate of the ranking (ties included) is still timed: the
  // ranking must match the brute-force sweep exactly. The second case
  // ranks more candidates than one round times before its first cutoff,
  // so a cutoff at the best time instead of the k-th best loses ranks.
  struct Case {
    std::int64_t n_gpus;
    std::int64_t batch;
    std::size_t top_k;
  };
  static_assert(100 > SearchOptions::round_size);
  const auto mdl = model::gpt3_175b();
  for (const Case& c : {Case{64, 256, 5}, Case{512, 512, 100}}) {
    SCOPED_TRACE(c.top_k);
    const auto sys = b200(8, c.n_gpus);
    SearchOptions opts;
    opts.strategy = parallel::TpStrategy::TP1D;
    opts.global_batch = c.batch;
    opts.top_k = c.top_k;
    opts.prune = false;
    const SearchResult brute = find_optimal(mdl, sys, opts);
    ASSERT_EQ(brute.top.size(), c.top_k);  // more feasible candidates
    opts.prune = true;
    const SearchResult pruned = find_optimal(mdl, sys, opts);
    ASSERT_EQ(pruned.top.size(), brute.top.size());
    for (std::size_t i = 0; i < brute.top.size(); ++i) {
      EXPECT_EQ(pruned.top[i].cfg.describe(), brute.top[i].cfg.describe());
      EXPECT_EQ(pruned.top[i].iteration(), brute.top[i].iteration());
    }
    EXPECT_GT(pruned.stats.bound_pruned, 0u);
  }
}

// --- Batched placement scan vs the exhaustive reference ---

void expect_same_work(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  EXPECT_EQ(a.stats.bound_pruned, b.stats.bound_pruned);
  EXPECT_EQ(a.stats.subtree_pruned, b.stats.subtree_pruned);
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
/// the independent evaluate_with_layer path: same optimum and top-5
/// ranking bit for bit, the top-5 search pruning against its 5th best
/// time, and the same work at 1 and 4 threads with and without the
/// ranking. Returns the candidates the pruned search skipped a prefix at a
/// time.
std::size_t expect_batched_matches_exhaustive(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::TpStrategy strategy, std::int64_t batch) {
  SearchOptions opts;
  opts.strategy = strategy;
  opts.global_batch = batch;
  opts.nb_candidates = {1, 4};  // SUMMA panels; keeps the sanitizer run short
  opts.threads = 4;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.top_k = 5;
  const SearchResult brute_top = find_optimal(mdl, sys, opts);

  opts.prune = true;
  const SearchResult top = find_optimal(mdl, sys, opts);
  expect_same_ranking(top.top, brute_top.top);
  EXPECT_GT(top.stats.bound_pruned, 0u);
  opts.threads = 1;
  const SearchResult top_one = find_optimal(mdl, sys, opts);
  expect_same_ranking(top_one.top, brute_top.top);
  expect_same_work(top_one, top);

  opts.threads = 4;
  opts.top_k = 0;
  const SearchResult four = find_optimal(mdl, sys, opts);
  opts.threads = 1;
  const SearchResult one = find_optimal(mdl, sys, opts);
  EXPECT_TRUE(brute.best.feasible);
  expect_same_optimum(one, brute);
  expect_same_optimum(four, brute);
  expect_same_work(one, four);
  EXPECT_LE(one.stats.subtree_pruned, one.stats.bound_pruned);
  return one.stats.subtree_pruned;
}

TEST(FindOptimal, BatchedEngineMatchesExhaustive) {
  // 4-GPU fast domains under 8-GPU leaves, so the optima's groups cross
  // the leaf tier and the three fabrics price them differently.
  const auto mdl = model::gpt3_175b();
  constexpr std::int64_t kGpus = 256;
  std::size_t subtree_pruned = 0;  // the matrix must exercise prefix skips
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
        subtree_pruned +=
            expect_batched_matches_exhaustive(mdl, sys, strategy, 512);
      }
    }
  }
  EXPECT_GT(subtree_pruned, 0u);

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
        core::search_bounds(mdl, small, cfg, opts.global_batch, opts.eval);
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
  // A ranking as long as the candidate space never has k feasible times,
  // so its cutoff stays +inf: every screened candidate is evaluated and
  // the eval count is exactly the tally above.
  SearchOptions ranked = opts;
  ranked.top_k = expand_candidates(mdl, small, opts).size();
  EXPECT_EQ(find_optimal(mdl, small, ranked).evaluated, screened_evals);
  SCOPED_TRACE("A100 40 GB two-level 1D TP");
  expect_batched_matches_exhaustive(mdl, small, opts.strategy,
                                    opts.global_batch);
}

TEST(Pruning, TopOneDoesThePlainSearchsWork) {
  // For k = 1 the k-th best time is the incumbent, so a one-entry ranking
  // prunes exactly like the plain search and ranks its optimum.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 4096);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 4096;
  const SearchResult plain = find_optimal(mdl, sys, opts);
  opts.top_k = 1;
  const SearchResult one = find_optimal(mdl, sys, opts);
  expect_same_optimum(one, plain);
  expect_same_work(one, plain);
  EXPECT_EQ(one.stats.placement_floor_pruned,
            plain.stats.placement_floor_pruned);
  ASSERT_EQ(one.top.size(), 1u);
  EXPECT_TRUE(same_optimum(one.top.front(), plain.best));
  EXPECT_TRUE(plain.top.empty());
}

TEST(Pruning, RankingLongerThanTheFeasibleSetPrunesNothing) {
  // While fewer than k candidates are feasible the cutoff is +inf: a
  // ranking as long as the space keeps every feasible candidate, in the
  // exhaustive engine's order.
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 64);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 256;
  opts.top_k = expand_candidates(mdl, sys, opts).size();
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.prune = true;
  const SearchResult all = find_optimal(mdl, sys, opts);
  ASSERT_GT(brute.feasible, 5u);
  EXPECT_EQ(brute.top.size(), brute.feasible);
  expect_same_ranking(all.top, brute.top);
  EXPECT_EQ(all.feasible, brute.feasible);
  EXPECT_EQ(all.stats.bound_pruned, 0u);
  EXPECT_EQ(all.stats.placement_floor_pruned, 0u);
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
  // GPT3-1T on 4096 B200s with SUMMA: pins every work counter of the
  // search. The phase-1 bound includes the TP communication floor, so the
  // comm-bound candidates are bound-pruned before any tail is compiled or
  // block built, and the placement-floor screen still settles some of the
  // candidates that reach the kernel. A counter that moves means the
  // screens or the bound changed.
  const auto mdl = model::gpt3_1t();
  const auto sys = b200(8, 4096);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 4096;
  const SearchResult r = find_optimal(mdl, sys, opts);
  ASSERT_TRUE(r.best.feasible);
  EXPECT_EQ(r.evaluated, 4212u);
  EXPECT_EQ(r.stats.bound_pruned, 14189u);
  EXPECT_EQ(r.stats.memory_pruned, 700u);
  EXPECT_EQ(r.stats.rounds, 7u);
  EXPECT_EQ(r.stats.signature_compiles, 416u);
  EXPECT_EQ(r.stats.build_layer_calls, 150u);
  EXPECT_EQ(r.stats.placement_sets, 97u);
  EXPECT_GT(r.stats.placement_floor_pruned, 0u);
  // Whole prefixes above the incumbent are skipped unexpanded; their
  // leaves are part of bound_pruned. Every candidate is accounted for once.
  EXPECT_GT(r.stats.subtree_pruned, 0u);
  EXPECT_LE(r.stats.subtree_pruned, r.stats.bound_pruned);
  EXPECT_EQ(r.stats.candidates, r.stats.signature_compiles +
                                    r.stats.bound_pruned +
                                    r.stats.memory_pruned);
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

TEST(PlacementFloorScreen, KeepsTopKRankingExact) {
  const auto mdl = model::gpt3_175b();
  const auto sys = b200(8, 128);
  SearchOptions opts;
  opts.strategy = parallel::TpStrategy::Summa2D;
  opts.global_batch = 512;
  opts.prune = false;
  const SearchResult brute = find_optimal(mdl, sys, opts);
  opts.top_k = 3;
  const SearchResult brute_top = find_optimal(mdl, sys, opts);
  opts.top_k = 0;
  opts.prune = true;
  const SearchResult screened = find_optimal(mdl, sys, opts);
  ASSERT_GT(screened.stats.placement_floor_pruned, 0u);
  expect_same_optimum(screened, brute);

  // A top-k ranking screens against its k-th best time: a candidate above
  // it is slower than k timed ones, so the ranking is the exhaustive one.
  opts.top_k = 3;
  const SearchResult top = find_optimal(mdl, sys, opts);
  expect_same_optimum(top, brute);
  expect_same_ranking(top.top, brute_top.top);
  opts.top_k = 0;

  // Above full overlap the floor is not a bound, and outside [0, 1] the
  // options are nonsense: the search rejects them before any work.
  for (const double bad : {1.5, -0.1, std::nan("")}) {
    opts.eval.tp_overlap = bad;
    EXPECT_THROW(find_optimal(mdl, sys, opts), std::invalid_argument) << bad;
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
// across strategies (SUMMA with one panel and with several), models (incl.
// MoE on 1D and 2D), the expansion axes and partially overlapped TP comm.
TEST(LowerBounds, FloorsNeverExceedActuals) {
  struct Case {
    model::TransformerConfig mdl;
    hw::SystemConfig sys;
    parallel::TpStrategy strategy;
    std::int64_t batch;
    std::vector<std::int64_t> nb_candidates;  ///< empty: the default set
    double tp_overlap;
  };
  const Case cases[] = {
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::TP1D, 256, {},
       0.0},
      {model::vit_32k(), b200(8, 64), parallel::TpStrategy::TP2D, 4096, {},
       0.0},
      {model::gpt_moe_1t(), b200(8, 64), parallel::TpStrategy::TP1D, 256, {},
       0.0},
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::Summa2D, 256,
       {1}, 0.0},
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::Summa2D, 256,
       {2, 8}, 0.0},
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::TP2D, 256, {},
       0.0},
      {model::gpt_moe_1t(), b200(8, 64), parallel::TpStrategy::TP2D, 256, {},
       0.0},
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::TP1D, 256, {},
       0.7},
      {model::vit_32k(), b200(8, 64), parallel::TpStrategy::TP2D, 4096, {},
       0.7},
      {model::gpt3_175b(), b200(8, 64), parallel::TpStrategy::Summa2D, 256,
       {1, 4}, 0.7},
  };
  for (const auto& cs : cases) {
    SCOPED_TRACE(cs.mdl.name + " " + parallel::to_string(cs.strategy) +
                 " tp_overlap=" + std::to_string(cs.tp_overlap));
    core::EvalOptions eval;
    eval.tp_overlap = cs.tp_overlap;
    EnumerationOptions eopts;
    eopts.strategy = cs.strategy;
    eopts.global_batch = cs.batch;
    eopts.nb_candidates = cs.nb_candidates;
    const auto base = expand_candidates(cs.mdl, cs.sys, eopts);
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
            core::search_bounds(cs.mdl, cs.sys, cfg, cs.batch, eval);
        const auto r = best_placement(cs.mdl, cs.sys, cfg, cs.batch, eval);
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

// search_bounds restates the MoE expert MLP op for op (moe_fc1/moe_fc2
// FLOPs, moe_gelu and dispatch/combine HBM bytes, the moe_fc2 ReduceScatter
// pair and the four AllToAlls). A floor above any one candidate's time can
// prune the optimum, so this checks every candidate of both MoE shapes, not
// a sample: 1D and 2D with every expansion axis, under every overlap and
// recompute setting, the floor must be at or below the best placement's
// time (an over-HBM candidate reports one placement's time, which the floor
// bounds just the same). No tolerance: the floor's own slack is all the
// search has.
TEST(LowerBounds, MoeFloorsNeverExceedActuals) {
  constexpr std::int64_t kGpus = 256;
  constexpr std::int64_t kBatch = 512;
  const hw::SystemConfig sys = b200(8, kGpus);
  std::size_t checked = 0;
  std::size_t violations = 0;
  for (const auto& mdl : {moe_family_shape(), model::gpt_moe_1t()}) {
    for (auto strategy :
         {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D}) {
      EnumerationOptions opts;
      opts.strategy = strategy;
      opts.global_batch = kBatch;
      opts.interleave_candidates = {1, 2};
      opts.allow_zero3 = true;
      opts.allow_ring_attention = true;
      for (const auto& cfg : expand_candidates(mdl, sys, opts)) {
        for (const double overlap : {0.0, 0.5, 1.0}) {
          for (const bool recompute : {false, true}) {
            core::EvalOptions eval;
            eval.tp_overlap = overlap;
            eval.activation_recompute = recompute;
            const core::EvalResult r =
                best_placement(mdl, sys, cfg, kBatch, eval);
            if (!r.feasible && r.reason != "exceeds HBM capacity") continue;
            const double floor =
                core::search_bounds(mdl, sys, cfg, kBatch, eval).time_floor;
            ++checked;
            if (floor <= r.iteration()) continue;
            if (++violations <= 5) {
              ADD_FAILURE() << mdl.name << " " << cfg.describe()
                            << " tp_overlap=" << overlap
                            << " recompute=" << recompute << ": floor "
                            << floor << " > " << r.iteration();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(checked, 0u);
}

// The comm term of search_bounds (core::layer_comm_floor) restates the
// builders' collective volumes by hand: the TP pairs, and for MoE the
// moe_fc2 ReduceScatter pair and the dispatch/combine AllToAlls on nd. The
// placement-floor walk prices the real op lists with the same
// collective_time_floor per request, and it keeps every term the floor
// drops (ring attention), so the hand-written per-layer floor must never
// exceed it, for any candidate or fabric.
TEST(LowerBounds, TpCommFloorBelowBlockWalk) {
  constexpr std::int64_t kGpus = 256;
  constexpr std::int64_t kBatch = 512;
  const hw::SystemConfig two_level = b200(8, kGpus);
  hw::SystemConfig leaf_spine = two_level;
  leaf_spine.fabric =
      hw::leaf_spine_topology(two_level.net, 8, 32, kGpus, 4.0);
  const hw::Topology fabrics[] = {two_level.resolved_fabric(),
                                  leaf_spine.resolved_fabric()};
  std::vector<Seconds> row_floor;
  std::size_t checked = 0;
  for (const auto& mdl : {model::gpt3_1t(), model::vit_64k(),
                          model::gpt_moe_1t(), moe_family_shape()}) {
    for (auto strategy :
         {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
          parallel::TpStrategy::Summa2D}) {
      SearchOptions opts;
      opts.strategy = strategy;
      opts.global_batch = kBatch;
      opts.allow_ring_attention = true;
      for (const auto& cfg : expand_candidates(mdl, two_level, opts)) {
        if (cfg.invalid_reason(mdl, two_level, kBatch)) continue;
        const core::BatchedSignature bat =
            core::lower_batched(core::compile_signature(mdl, cfg, kBatch));
        for (double overlap : {0.0, 0.5, 1.0}) {
          core::EvalOptions eval;
          eval.tp_overlap = overlap;
          const core::BlockTiming part =
              core::bind_block(bat, two_level, eval);
          const core::SearchBoundsBase base =
              core::search_bounds_base(mdl, two_level, cfg, kBatch, eval);
          for (const hw::Topology& fabric : fabrics) {
            const core::CommWalk walk = core::floor_comm_walk(
                bat, part.summa_panel_time, fabric, cfg, eval, row_floor);
            const Seconds tp = core::layer_comm_floor(base, fabric, cfg);
            ++checked;
            EXPECT_LE(tp.value(),
                      (walk.fwd_comm + walk.bwd_comm).value() * (1 + 1e-12))
                << mdl.name << " " << cfg.describe()
                << " tp_overlap=" << overlap;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// The candidate tree skips a prefix whose floor is above the incumbent
// without expanding it, and merges the expanded leaves in (bound, index)
// order on the premise that no leaf bounds below its prefix. So every
// prefix floor must be <= every leaf's search_bounds time floor, bitwise
// (no tolerance here: the floor's own 1e-9 slack is all the engine has),
// on every strategy, model, GPU, fabric, overlap and expansion axis.
TEST(LowerBounds, PrefixFloorBelowEveryChildBound) {
  constexpr std::int64_t kGpus = 256;
  constexpr std::int64_t kBatch = 512;
  std::size_t checked = 0;
  std::size_t violations = 0;
  for (auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                   hw::GpuGeneration::B200}) {
    const hw::SystemConfig sys = hw::make_system(gen, 8, kGpus);
    const hw::Topology fabrics[] = {
        sys.resolved_fabric(),
        hw::leaf_spine_topology(sys.net, 8, 32, kGpus, 4.0),
        hw::rail_optimized_topology(sys.net, 8, 32, kGpus)};
    for (const auto& mdl : {model::gpt3_1t(), model::vit_64k(),
                            model::gpt_moe_1t(), moe_family_shape()}) {
      for (auto strategy :
           {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
            parallel::TpStrategy::Summa2D}) {
        EnumerationOptions opts;
        opts.strategy = strategy;
        opts.global_batch = kBatch;
        opts.interleave_candidates = {1, 2, 4, 8};
        opts.allow_zero3 = true;
        opts.allow_ring_attention = true;
        const CandidateTree tree(mdl, kGpus, opts);
        for (double overlap : {0.0, 0.5, 1.0}) {
          core::EvalOptions eval;
          eval.tp_overlap = overlap;
          eval.activation_offload = 0.5;
          for (const hw::Topology& fabric : fabrics) {
            for (const CandidatePrefix& p : tree.prefixes()) {
              if (p.cfg.invalid_reason(mdl, sys, kBatch)) continue;
              const double floor = core::prefix_time_floor(
                  mdl, sys, fabric, p.cfg, kBatch, eval);
              tree.for_each_leaf(p, [&](const parallel::ParallelConfig& cfg,
                                        std::size_t) {
                const double lb =
                    core::search_bounds(mdl, sys, fabric, cfg, kBatch, eval)
                        .time_floor;
                ++checked;
                if (floor <= lb) return;
                if (++violations <= 5) {
                  ADD_FAILURE() << mdl.name << " " << sys.gpu.name << " "
                                << fabric.describe() << " "
                                << cfg.describe()
                                << " tp_overlap=" << overlap
                                << ": prefix floor " << floor
                                << " > leaf bound " << lb;
                }
              });
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(checked, 0u);
}

// The scan driver keeps a prefix floor's fabric-free base per chain and
// finishes it per point; the composed floor must be prefix_time_floor bit
// for bit, or the two engines would expand prefixes at different times.
TEST(LowerBounds, PrefixFloorSplitIsBitwise) {
  constexpr std::int64_t kGpus = 256;
  constexpr std::int64_t kBatch = 512;
  std::size_t checked = 0;
  for (auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                   hw::GpuGeneration::B200}) {
    const hw::SystemConfig sys = hw::make_system(gen, 8, kGpus);
    const hw::Topology fabrics[] = {
        sys.resolved_fabric(),
        hw::leaf_spine_topology(sys.net, 8, 32, kGpus, 4.0),
        hw::rail_optimized_topology(sys.net, 8, 32, kGpus)};
    for (const auto& mdl : {model::gpt3_1t(), model::vit_64k(),
                            model::gpt_moe_1t(), moe_family_shape()}) {
      for (auto strategy :
           {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
            parallel::TpStrategy::Summa2D}) {
        EnumerationOptions opts;
        opts.strategy = strategy;
        opts.global_batch = kBatch;
        opts.interleave_candidates = {1, 2, 4, 8};
        opts.allow_zero3 = true;
        opts.allow_ring_attention = true;
        const CandidateTree tree(mdl, kGpus, opts);
        for (double overlap : {0.0, 0.5, 1.0}) {
          core::EvalOptions eval;
          eval.tp_overlap = overlap;
          eval.activation_offload = 0.5;
          for (const CandidatePrefix& p : tree.prefixes()) {
            if (p.cfg.invalid_reason(mdl, sys, kBatch)) continue;
            const core::PrefixFloorBase base =
                core::prefix_floor_base(mdl, sys, p.cfg, kBatch, eval);
            for (const hw::Topology& fabric : fabrics) {
              const double whole = core::prefix_time_floor(
                  mdl, sys, fabric, p.cfg, kBatch, eval);
              const double split =
                  core::finish_prefix_floor(base, fabric, p.cfg);
              ASSERT_EQ(std::bit_cast<std::uint64_t>(split),
                        std::bit_cast<std::uint64_t>(whole))
                  << mdl.name << " " << sys.gpu.name << " "
                  << fabric.describe() << " " << p.cfg.describe()
                  << " tp_overlap=" << overlap;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

// The scan driver memory-prunes a leaf on core::token_memory_floor: the
// tail's own memory statements on its layer family's scalars at local
// microbatch 1, the stored and boundary bytes scaled by the leaf's local
// microbatch. It must never exceed the tail's total, or the scan would drop
// a leaf that fits. Every builder's stored and boundary bytes are linear in
// the local microbatch, so the scaled statements give the total itself (on
// these shapes bit for bit: every byte count is an integer far below 2^53),
// and the floor is that times (1 - 1e-9). So the floor must sit in
// [total * (1 - 2e-9), total * (1 - 5e-10)]: below the total by a margin a
// few roundings of a future builder cannot eat, and close enough to prune
// (a floor that lost the microbatch scaling would hold and prune almost
// nothing).
TEST(LowerBounds, TokenMemoryFloorIsTheTailTotal) {
  constexpr std::int64_t kGpus = 256;
  constexpr std::int64_t kBatch = 512;
  const hw::SystemConfig sys = b200(8, kGpus);
  std::size_t checked = 0;
  std::size_t scaled = 0;  // leaves with local microbatch > 1
  std::size_t violations = 0;
  for (const auto& mdl : {model::gpt3_1t(), model::vit_64k(),
                          model::llama3_405b(), moe_family_shape()}) {
    ShapeCaches caches;
    for (auto strategy :
         {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
          parallel::TpStrategy::Summa2D}) {
      EnumerationOptions opts;
      opts.strategy = strategy;
      opts.global_batch = kBatch;
      opts.allow_zero3 = true;
      opts.allow_ring_attention = true;
      const CandidateTree tree(mdl, kGpus, opts);
      for (const CandidatePrefix& p : tree.prefixes()) {
        if (p.cfg.invalid_reason(mdl, sys, kBatch)) continue;
        tree.for_each_leaf(p, [&](const parallel::ParallelConfig& cfg,
                                  std::size_t) {
          const auto blk = caches.block(mdl, cfg, kBatch);
          if (cfg.local_microbatch(kBatch) > 1) ++scaled;
          for (const bool recompute : {false, true}) {
            for (const double offload : {0.0, 0.5}) {
              core::EvalOptions eval;
              eval.activation_recompute = recompute;
              eval.activation_offload = offload;
              const double total =
                  core::compile_tail(mdl, cfg, kBatch, blk->bat, eval)
                      .mem.total()
                      .value();
              const double floor = core::token_memory_floor(
                  mdl, cfg, kBatch, *caches.unit(mdl, cfg, kBatch), eval);
              ++checked;
              if (floor <= total * (1.0 - 5e-10) &&
                  floor >= total * (1.0 - 2e-9)) {
                continue;
              }
              if (++violations <= 5) {
                ADD_FAILURE() << mdl.name << " " << cfg.describe()
                              << " recompute=" << recompute
                              << " offload=" << offload << ": floor "
                              << floor << " vs tail total " << total;
              }
            }
          }
        });
      }
    }
  }
  EXPECT_EQ(violations, 0u);
  EXPECT_GT(scaled, 0u);
  EXPECT_GT(checked, 0u);
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
