// Pipelined, warm-started sweep engine: bitwise identity of the cold and
// warm-started engine against find_optimal, loud rejection of unsupported
// SweepOptions, thread-count invariance of the new work counters, and
// tsan-covered concurrency of the shared caches and the chain-streaming
// fan-out. Test suites are named Sweep/Signature on purpose — the tsan CTest
// preset filters on those suite names.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/lower_bounds.hpp"
#include "model/shape_family.hpp"
#include "search/search.hpp"
#include "search/enumerate.hpp"
#include "search/point_scan.hpp"
#include "search/search_cache.hpp"
#include "search/sweep.hpp"

namespace tfpe {
namespace {

void expect_same_optimum(const core::EvalResult& ref,
                         const core::EvalResult& got,
                         const std::string& label) {
  ASSERT_EQ(ref.feasible, got.feasible) << label;
  if (!ref.feasible) return;
  EXPECT_EQ(ref.cfg.describe(), got.cfg.describe()) << label;
  EXPECT_EQ(ref.iteration(), got.iteration()) << label;
  EXPECT_EQ(ref.mem.total().value(), got.mem.total().value()) << label;
}

/// The sweep engine — cold and warm-started — must land on find_optimal's
/// optimum bit for bit.
TEST(Sweep, BatchedWarmStartedMatchesFindOptimal) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 256);
  for (bool warm : {false, true}) {
    search::SweepOptions opts;
    opts.search.strategy = parallel::TpStrategy::TP1D;
    opts.search.global_batch = 1024;
    opts.warm_start = warm;
    opts.threads = 2;
    const auto swept = search::run_sweep(mdl, points, opts);
    ASSERT_EQ(swept.best.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto direct = search::find_optimal(mdl, points[i], opts.search);
      expect_same_optimum(
          direct.best, swept.best[i],
          "point " + std::to_string(i) + " warm=" + std::to_string(warm));
    }
    if (warm) {
      // Two chains (A100, B200) of two points each: exactly the second
      // point of each chain is seeded.
      EXPECT_EQ(swept.stats.warm_seeded, 2u);
      EXPECT_LE(swept.stats.warm_seed_feasible, swept.stats.warm_seeded);
    } else {
      EXPECT_EQ(swept.stats.warm_seeded, 0u);
    }
    EXPECT_GT(swept.stats.batch_calls, 0u);
    EXPECT_GT(swept.stats.signature_lowers, 0u);
    // The batch kernel runs once per feasible candidate scan; the
    // capacity gates and pruning keep some evals out of batches.
    EXPECT_LE(swept.stats.batch_placements, swept.stats.evaluated);
    EXPECT_GE(swept.stats.batch_occupancy(), 1.0);
  }
}

/// A second model/strategy shape through the warm-started batch path: the
/// 2D tensor-parallel ViT case of the seed CLI matrix.
TEST(Sweep, WarmStartMatchesOnVit2d) {
  const auto mdl = model::vit_64k();
  const auto points =
      search::hardware_grid({hw::GpuGeneration::B200}, {4, 8, 16}, 256);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP2D;
  opts.search.global_batch = 2048;
  opts.warm_start = true;
  opts.threads = 2;
  const auto swept = search::run_sweep(mdl, points, opts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto direct = search::find_optimal(mdl, points[i], opts.search);
    expect_same_optimum(direct.best, swept.best[i],
                        "vit point " + std::to_string(i));
  }
  // One chain of three points: both successors are seeded.
  EXPECT_EQ(swept.stats.warm_seeded, 2u);
}

/// A chain keys on the GPU name, so what-if points can reuse a name with
/// other rates. Each chain binds a block once per GPU roofline and host
/// link: a point that changes either must rebind, or its candidates are
/// timed against the previous point's rooflines.
TEST(Sweep, RebindsBlocksWhenTheRooflineChangesInAChain) {
  const auto mdl = model::gpt3_175b();
  const hw::SystemConfig base = hw::make_system(hw::GpuGeneration::B200, 8, 128);
  hw::SystemConfig slower = base;
  slower.gpu = base.gpu.with_compute(base.gpu.tensor_flops * 0.5,
                                     base.gpu.vector_flops * 0.5);
  hw::SystemConfig thin_host = base;
  thin_host.host_bandwidth = base.host_bandwidth * 0.25;
  const std::vector<hw::SystemConfig> points = {base, slower, thin_host};
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 512;
  opts.search.eval.activation_offload = 0.5;
  opts.threads = 1;
  const auto swept = search::run_sweep(mdl, points, opts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(points[i].gpu.name, base.gpu.name);
    const auto direct = search::find_optimal(mdl, points[i], opts.search);
    ASSERT_TRUE(direct.best.feasible) << i;
    expect_same_optimum(direct.best, swept.best[i],
                        "point " + std::to_string(i));
  }
}

/// The new counters — batch occupancy, warm seeds — must be invariant to
/// the worker count, like every other work counter: chains are static and
/// sequential, so the schedule cannot leak in.
TEST(Sweep, WarmBatchCountersThreadInvariant) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8}, 128);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 512;
  opts.warm_start = true;
  opts.threads = 1;
  const auto one = search::run_sweep(mdl, points, opts);
  opts.threads = 4;
  const auto four = search::run_sweep(mdl, points, opts);
  EXPECT_EQ(one.evaluated_per_point, four.evaluated_per_point);
  EXPECT_EQ(one.stats.evaluated, four.stats.evaluated);
  EXPECT_EQ(one.stats.bound_pruned, four.stats.bound_pruned);
  EXPECT_EQ(one.stats.subtree_pruned, four.stats.subtree_pruned);
  EXPECT_EQ(one.stats.memory_pruned, four.stats.memory_pruned);
  EXPECT_EQ(one.stats.batch_calls, four.stats.batch_calls);
  EXPECT_EQ(one.stats.batch_placements, four.stats.batch_placements);
  EXPECT_EQ(one.stats.warm_seeded, four.stats.warm_seeded);
  EXPECT_EQ(one.stats.warm_seed_feasible, four.stats.warm_seed_feasible);
  EXPECT_EQ(one.stats.signature_compiles, four.stats.signature_compiles);
  EXPECT_EQ(one.stats.signature_lowers, four.stats.signature_lowers);
  EXPECT_EQ(one.stats.candidates, four.stats.candidates);
  // Three chains (one per generation) of two points: one seed per chain.
  EXPECT_EQ(one.stats.warm_seeded, 3u);
}

/// tsan target: hammer the tail -> block cache chain of the scan engine
/// from many threads the way concurrent chains do, in shuffled key orders.
/// Every thread must observe the same shared tail and block per key, each
/// key must be built exactly once, and the block ids must be dense.
TEST(Signature, CacheHammerFromConcurrentStages) {
  const auto mdl = model::gpt3_175b();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 128);
  search::SearchOptions sopts;
  sopts.strategy = parallel::TpStrategy::TP1D;
  sopts.global_batch = 512;
  std::vector<parallel::ParallelConfig> keys;
  for (const auto& cfg : search::expand_candidates(mdl, sys, sopts)) {
    if (cfg.invalid_reason(mdl, sys, 512)) continue;
    keys.push_back(cfg);
    if (keys.size() == 16) break;
  }
  ASSERT_GE(keys.size(), 8u);
  std::vector<search::LayerKey> layers;
  for (const auto& cfg : keys) {
    const search::LayerKey k = search::layer_key(mdl, cfg, 512);
    if (std::find(layers.begin(), layers.end(), k) == layers.end()) {
      layers.push_back(k);
    }
  }

  search::ShapeCaches caches;
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::vector<std::vector<const core::SignatureTail*>> tail_seen(kThreads);
  std::vector<std::vector<const search::ScanBlock*>> block_seen(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::size_t> order(keys.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937 rng(1234u + static_cast<unsigned>(t));
      tail_seen[t].assign(keys.size(), nullptr);
      block_seen[t].assign(keys.size(), nullptr);
      for (int round = 0; round < kRounds; ++round) {
        std::shuffle(order.begin(), order.end(), rng);
        for (const std::size_t i : order) {
          const auto tail =
              caches.tails.get(search::signature_key(keys[i]), [&] {
                return core::compile_tail(
                    mdl, keys[i], 512, caches.block(mdl, keys[i], 512)->bat);
              });
          const auto blk = caches.block(mdl, keys[i], 512);
          // Exercise the timing stage on the shared block, as the scan
          // does while other threads still compile.
          const auto base = core::bind_system_batched(*tail, blk->bat, sys);
          EXPECT_GT(base.fwd_cm.value(), 0.0);
          if (tail_seen[t][i] == nullptr) {
            tail_seen[t][i] = tail.get();
            block_seen[t][i] = blk.get();
          } else {
            EXPECT_EQ(tail_seen[t][i], tail.get());
            EXPECT_EQ(block_seen[t][i], blk.get());
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tail_seen[0], tail_seen[t]);
    EXPECT_EQ(block_seen[0], block_seen[t]);
  }
  // Shard mutexes are held across the build: exactly one compile per
  // distinct tail key and one lower per distinct layer, every other access
  // a hit; the block ids number the layers 0..n-1.
  EXPECT_EQ(caches.tails.builds(), keys.size());
  EXPECT_EQ(caches.blocks.builds(), layers.size());
  const std::size_t gets = keys.size() * kThreads * kRounds;
  EXPECT_EQ(caches.tails.builds() + caches.tails.hits(), gets);
  std::vector<char> id_seen(layers.size(), 0);
  for (const search::ScanBlock* blk : block_seen[0]) {
    ASSERT_LT(blk->id, layers.size());
    id_seen[blk->id] = 1;
  }
  EXPECT_EQ(std::count(id_seen.begin(), id_seen.end(), 1),
            static_cast<std::ptrdiff_t>(layers.size()));
  // Each shared tail is the whole signature's tail, bit for bit.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const core::CostSignature sig = core::compile_signature(mdl, keys[i], 512);
    EXPECT_EQ(tail_seen[0][i]->mem.total().value(), sig.mem.total().value());
    EXPECT_EQ(tail_seen[0][i]->optimizer_traffic.value(),
              sig.optimizer_traffic.value());
  }
}

/// tsan target: the full pipelined engine — several chains streaming over
/// the pool, all stages sharing the sweep-wide caches — under the batched,
/// warm-started configuration.
/// One row of the pinned scan-driver counters: a run_sweep over the Fig. 2
/// grid at 4096 GPUs, cold or warm-started.
struct PinnedSweep {
  const char* label;
  bool warm;
  std::size_t evaluated, bound_pruned, memory_pruned, placement_floor_pruned;
  std::size_t batch_calls, batch_placements, signature_compiles;
  std::size_t signature_lowers, signature_reuses, warm_seed_feasible;
  double iteration_sum;
  /// evaluated + bound_pruned + memory_pruned as pinned before the scan
  /// memory-pruned on the per-token floor. An exact memory floor only
  /// moves a leaf that is over HBM, which was charged one evaluation or
  /// pruned, so the sum cannot move.
  std::size_t verdicts;
};

/// The scan driver's work counters on the Fig. 2 grid, pinned at one and
/// two workers, cold and warm; every per-point optimum must equal
/// find_optimal's bit for bit. Sweep.SkippedPrefixesClassifyLikeLeaves
/// checks that a skipped prefix gives its leaves a leaf-by-leaf screen's
/// verdicts.
TEST(Sweep, SubtreeBoundsKeepEveryCounter) {
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8, 16, 32, 64}, 4096);
  struct Case {
    const char* label;
    model::TransformerConfig mdl;
    parallel::TpStrategy strategy;
    bool ext;  // allow_zero3, allow_ring_attention, interleave {1, 2, 4}
  };
  const std::vector<Case> cases = {
      {"GPT3-1T 1D", model::gpt3_1t(), parallel::TpStrategy::TP1D, false},
      {"GPT3-1T 2D", model::gpt3_1t(), parallel::TpStrategy::TP2D, false},
      {"ViT-64K SUMMA ext", model::vit_64k(), parallel::TpStrategy::Summa2D,
       true},
      {"GPT3-1T 2D ext", model::gpt3_1t(), parallel::TpStrategy::TP2D, true},
  };
  const std::vector<PinnedSweep> pinned = {
      {"GPT3-1T 1D", false, 1269, 454, 4475, 14, 97, 1123, 15, 3, 85, 0,
       385.77772977511756, 6198},
      {"GPT3-1T 1D", true, 1269, 454, 4475, 14, 97, 1123, 15, 3, 85, 12,
       385.77772977511756, 6198},
      {"GPT3-1T 2D", false, 11635, 6929, 38680, 317, 364, 5479, 122, 31, 444,
       0, 355.97888732680644, 57244},
      {"GPT3-1T 2D", true, 11667, 6927, 38680, 324, 359, 5308, 122, 31, 446,
       12, 355.97888732680644, 57274},
      {"ViT-64K SUMMA ext", false, 53655, 43759, 295475, 2566, 2300, 22366,
       1012, 123, 2269, 0, 1870.051695589118, 392889},
      {"ViT-64K SUMMA ext", true, 53655, 43759, 295475, 2577, 2289, 22287,
       1012, 123, 2269, 12, 1870.051695589118, 392889},
      {"GPT3-1T 2D ext", false, 203004, 120430, 293645, 17791, 1904, 14930,
       1023, 260, 14616, 0, 330.00149457182187, 617079},
      {"GPT3-1T 2D ext", true, 203004, 120430, 293645, 18855, 840, 7909, 1023,
       260, 14616, 12, 330.00149457182187, 617079},
  };
  std::size_t row = 0;
  for (const Case& c : cases) {
    search::SweepOptions opts;
    opts.search.strategy = c.strategy;
    opts.search.global_batch = 4096;
    if (c.ext) {
      opts.search.allow_zero3 = true;
      opts.search.allow_ring_attention = true;
      opts.search.interleave_candidates = {1, 2, 4};
    }
    std::vector<core::EvalResult> direct;
    for (const auto& sys : points) {
      direct.push_back(search::find_optimal(c.mdl, sys, opts.search).best);
    }
    for (const bool warm : {false, true}) {
      const PinnedSweep& pin = pinned[row++];
      ASSERT_EQ(std::string(pin.label), c.label);
      ASSERT_EQ(pin.warm, warm);
      for (const unsigned threads : {1u, 2u}) {
        opts.warm_start = warm;
        opts.threads = threads;
        const auto swept = search::run_sweep(c.mdl, points, opts);
        const search::SweepStats& s = swept.stats;
        const std::string label = std::string(c.label) +
                                  " warm=" + std::to_string(warm) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(s.evaluated, pin.evaluated) << label;
        EXPECT_EQ(s.bound_pruned, pin.bound_pruned) << label;
        EXPECT_EQ(s.memory_pruned, pin.memory_pruned) << label;
        EXPECT_EQ(s.placement_floor_pruned, pin.placement_floor_pruned)
            << label;
        EXPECT_EQ(s.batch_calls, pin.batch_calls) << label;
        EXPECT_EQ(s.batch_placements, pin.batch_placements) << label;
        EXPECT_EQ(s.signature_compiles, pin.signature_compiles) << label;
        EXPECT_EQ(s.signature_lowers, pin.signature_lowers) << label;
        EXPECT_EQ(s.signature_reuses, pin.signature_reuses) << label;
        EXPECT_EQ(s.warm_seed_feasible, pin.warm_seed_feasible) << label;
        EXPECT_EQ(s.evaluated + s.bound_pruned + s.memory_pruned,
                  pin.verdicts)
            << label;
        EXPECT_LE(s.subtree_pruned, s.bound_pruned) << label;
        if (c.strategy != parallel::TpStrategy::TP1D) {
          // 2D and SUMMA rows must exercise whole-prefix skips.
          EXPECT_GT(s.subtree_pruned, 0u) << label;
        }
        double iteration_sum = 0;
        ASSERT_EQ(swept.best.size(), points.size()) << label;
        for (std::size_t p = 0; p < points.size(); ++p) {
          expect_same_optimum(direct[p], swept.best[p],
                              label + " point " + std::to_string(p));
          iteration_sum += swept.best[p].iteration();
        }
        EXPECT_EQ(iteration_sum, pin.iteration_sum) << label;
      }
    }
  }
}

/// scan_point settles skipped prefixes a whole (m, ring, ZeRO) group at a
/// time. Brute-force reference for one cold grid point: every valid leaf
/// screened on its own — memory-pruned when the larger of the analytic and
/// per-token memory floors is over HBM, else popped when its bound is at or
/// below the point's optimum (the scan pops in bound order and stops at the
/// first bound above its running incumbent, which is the optimum once the
/// optimum, bounded below it, has been timed), else bound-pruned — and a
/// popped leaf charged one evaluation when its tail is over HBM, else its
/// placement set. The scan's counters must equal it with every extension
/// axis on (interleave, ring attention, ZeRO-3), so each group of a
/// skipped prefix holds several leaves.
TEST(Sweep, SkippedPrefixesClassifyLikeLeaves) {
  const auto mdl = model::gpt3_1t();
  constexpr std::int64_t kBatch = 4096;
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP2D;
  opts.search.global_batch = kBatch;
  opts.search.allow_zero3 = true;
  opts.search.allow_ring_attention = true;
  opts.search.interleave_candidates = {1, 2, 4};
  opts.threads = 1;
  const core::EvalOptions& eval = opts.search.eval;
  std::size_t ring_leaves = 0;
  for (const auto& sys : search::hardware_grid(
           {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {8, 64},
           4096)) {
    const std::string label = sys.gpu.name + " nvs=" +
                              std::to_string(sys.nvs_domain);
    const auto swept = search::run_sweep(mdl, {sys}, opts);
    const search::SweepStats& s = swept.stats;
    ASSERT_EQ(swept.best.size(), 1u) << label;
    const double optimum = swept.best[0].feasible
                               ? swept.best[0].iteration()
                               : std::numeric_limits<double>::infinity();
    const Bytes hbm = sys.gpu.hbm_capacity;

    search::ShapeCaches caches;
    std::size_t evaluated = 0, bound_pruned = 0, memory_pruned = 0;
    const search::CandidateTree tree(mdl, sys.n_gpus, opts.search);
    for (const search::CandidatePrefix& p : tree.prefixes()) {
      if (p.cfg.invalid_reason(mdl, sys, kBatch)) continue;
      tree.for_each_leaf(p, [&](const parallel::ParallelConfig& cfg,
                                std::size_t) {
        if (cfg.ring_attention) ++ring_leaves;
        const double floor = std::max(
            core::memory_floor(mdl, cfg, kBatch, eval),
            core::token_memory_floor(mdl, cfg, kBatch,
                                     *caches.unit(mdl, cfg, kBatch), eval));
        if (Bytes(floor) > hbm) {
          ++memory_pruned;
        } else if (core::search_bounds(mdl, sys, cfg, kBatch, eval)
                       .time_floor > optimum) {
          ++bound_pruned;
        } else if (core::compile_signature(mdl, cfg, kBatch, eval)
                       .mem.total() > hbm) {
          ++evaluated;
        } else {
          evaluated += search::enumerate_placements(cfg, sys.nvs_domain).size();
        }
      });
    }
    EXPECT_EQ(s.memory_pruned, memory_pruned) << label;
    EXPECT_EQ(s.bound_pruned, bound_pruned) << label;
    EXPECT_EQ(s.evaluated, evaluated) << label;
    // The point must exercise both paths: prefixes skipped whole and
    // leaves memory-pruned.
    EXPECT_GT(s.subtree_pruned, 0u) << label;
    EXPECT_GT(s.memory_pruned, 0u) << label;
  }
  EXPECT_GT(ring_leaves, 0u);
}

/// The scan's prefix memory screen. MemoryFloors holds one floor per
/// (prefix, m, ring, ZeRO) group; each entry must equal, bit for bit, the
/// larger of the analytic and per-token memory floors of every leaf of its
/// group, with the per-token unit built here (block_scalars of the leaf's
/// layer family at microbatch 1), never read from the table or its caches.
/// A prefix is settled before expansion exactly when every leaf's floor is
/// over HBM, and the scan's counters still equal a leaf-by-leaf screen's
/// (as in Sweep.SkippedPrefixesClassifyLikeLeaves).
TEST(Sweep, PrefixMemoryScreenSettlesAllOverHbmPrefixes) {
  constexpr std::int64_t kBatch = 4096;
  constexpr std::int64_t kGpus = 4096;
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.04;
  fam.head_dims = {128};
  fam.moe_experts = {8};
  const auto family = model::shape_family(model::gpt3_1t(), fam);
  ASSERT_FALSE(family.empty());
  ASSERT_EQ(family.front().moe_experts, 8);
  struct Case {
    const char* label;
    model::TransformerConfig mdl;
    parallel::TpStrategy strategy;
  };
  const std::vector<Case> cases = {
      {"GPT3-1T 1D", model::gpt3_1t(), parallel::TpStrategy::TP1D},
      {"GPT3-1T 2D", model::gpt3_1t(), parallel::TpStrategy::TP2D},
      {"8-expert 2D", family.front(), parallel::TpStrategy::TP2D},
  };
  const auto systems = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {8, 64}, kGpus);
  std::size_t settled = 0;  // prefixes every leaf of which is over HBM
  std::size_t mixed = 0;    // prefixes with leaves on both sides of HBM
  for (const Case& c : cases) {
    search::SweepOptions opts;
    opts.search.strategy = c.strategy;
    opts.search.global_batch = kBatch;
    opts.search.allow_zero3 = true;
    opts.search.allow_ring_attention = true;
    opts.search.interleave_candidates = {1, 2, 4};
    opts.threads = 1;
    const core::EvalOptions& eval = opts.search.eval;
    const search::CandidateTree tree(c.mdl, kGpus, opts.search);
    search::ShapeCaches caches;
    const search::MemoryFloors floors(c.mdl, tree, kBatch, eval, caches);

    // Every leaf's floor, from units built here.
    std::vector<double> leaf_floor(tree.size());
    for (std::size_t p = 0; p < tree.prefixes().size(); ++p) {
      const search::CandidatePrefix& prefix = tree.prefixes()[p];
      const auto groups = floors.groups(p);
      ASSERT_EQ(groups.size(),
                tree.microbatches(prefix).size() * tree.groups_per_m(prefix))
          << c.label;
      std::optional<core::BlockScalars> units[2];
      tree.for_each_leaf(prefix, [&](const parallel::ParallelConfig& cfg,
                                     std::size_t i) {
        std::optional<core::BlockScalars>& unit =
            units[cfg.ring_attention ? 1 : 0];
        if (!unit) {
          unit = core::block_scalars(c.mdl, cfg,
                                     parallel::build_layer(c.mdl, cfg, 1));
        }
        leaf_floor[i] = std::max(
            core::memory_floor(c.mdl, cfg, kBatch, eval),
            core::token_memory_floor(c.mdl, cfg, kBatch, *unit, eval));
        EXPECT_EQ(groups[tree.group_of(prefix, i)], leaf_floor[i])
            << c.label << " " << cfg.describe();
        EXPECT_EQ(floors.leaf(tree, p, i), leaf_floor[i]) << c.label;
      });
    }

    for (const auto& sys : systems) {
      const std::string label = std::string(c.label) + " " + sys.gpu.name +
                                " nvs=" + std::to_string(sys.nvs_domain);
      const Bytes hbm = sys.gpu.hbm_capacity;
      const auto swept = search::run_sweep(c.mdl, {sys}, opts);
      const search::SweepStats& s = swept.stats;
      ASSERT_EQ(swept.best.size(), 1u) << label;
      const double optimum = swept.best[0].feasible
                                 ? swept.best[0].iteration()
                                 : std::numeric_limits<double>::infinity();
      std::size_t evaluated = 0, bound_pruned = 0, memory_pruned = 0;
      for (std::size_t p = 0; p < tree.prefixes().size(); ++p) {
        const search::CandidatePrefix& prefix = tree.prefixes()[p];
        ASSERT_FALSE(prefix.cfg.invalid_reason(c.mdl, sys, kBatch)) << label;
        std::size_t over = 0, leaves = 0;
        tree.for_each_leaf(prefix, [&](const parallel::ParallelConfig& cfg,
                                       std::size_t i) {
          ++leaves;
          if (Bytes(leaf_floor[i]) > hbm) {
            ++over;
            ++memory_pruned;
          } else if (core::search_bounds(c.mdl, sys, cfg, kBatch, eval)
                         .time_floor > optimum) {
            ++bound_pruned;
          } else if (core::compile_signature(c.mdl, cfg, kBatch, eval)
                         .mem.total() > hbm) {
            ++evaluated;
          } else {
            evaluated +=
                search::enumerate_placements(cfg, sys.nvs_domain).size();
          }
        });
        EXPECT_EQ(floors.over(p, hbm), over == leaves)
            << label << " " << prefix.cfg.describe();
        settled += over == leaves;
        mixed += over > 0 && over < leaves;
      }
      EXPECT_EQ(s.memory_pruned, memory_pruned) << label;
      EXPECT_EQ(s.bound_pruned, bound_pruned) << label;
      EXPECT_EQ(s.evaluated, evaluated) << label;
    }
  }
  // Both sides of the screen are exercised: prefixes settled whole, and
  // prefixes it must expand although some of their leaves are over HBM.
  EXPECT_GT(settled, 0u);
  EXPECT_GT(mixed, 0u);
}

TEST(Sweep, PipelinedEngineConcurrentChains) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8}, 128);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 512;
  opts.warm_start = true;
  opts.threads = 4;
  const auto swept = search::run_sweep(mdl, points, opts);
  ASSERT_EQ(swept.best.size(), points.size());
  EXPECT_EQ(swept.stats.points, points.size());
  EXPECT_GT(swept.stats.feasible_points, 0u);
  EXPECT_GT(swept.stats.batch_calls, 0u);
  // The stage profile is schedule-dependent, but its busy totals must be
  // populated and bounded by worker-seconds.
  EXPECT_GT(swept.stats.profile.time_s, 0.0);
  EXPECT_GE(swept.stats.profile.wall_s, 0.0);
}

}  // namespace
}  // namespace tfpe
