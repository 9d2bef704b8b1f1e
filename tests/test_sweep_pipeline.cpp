// Pipelined, warm-started sweep engine: bitwise identity of the cold and
// warm-started engine against find_optimal, loud rejection of unsupported
// SweepOptions, thread-count invariance of the new work counters, and
// tsan-covered concurrency of the shared caches and the chain-streaming
// fan-out. Test suites are named Sweep/Signature on purpose — the tsan CTest
// preset filters on those suite names.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batched_signature.hpp"
#include "search/search.hpp"
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
/// optimum bit for bit, pruned or exhaustive.
TEST(Sweep, BatchedWarmStartedMatchesFindOptimal) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 256);
  for (bool prune : {false, true}) {
    for (bool warm : {false, true}) {
      search::SweepOptions opts;
      opts.search.strategy = parallel::TpStrategy::TP1D;
      opts.search.global_batch = 1024;
      opts.search.prune = prune;
      opts.warm_start = warm;
      opts.threads = 2;
      const auto swept = search::run_sweep(mdl, points, opts);
      ASSERT_EQ(swept.best.size(), points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto direct = search::find_optimal(mdl, points[i], opts.search);
        expect_same_optimum(direct.best, swept.best[i],
                            "point " + std::to_string(i) + " warm=" +
                                std::to_string(warm) + " prune=" +
                                std::to_string(prune));
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

/// SweepOptions must reject the SearchOptions fields the sweep cannot
/// honor, instead of silently ignoring them.
TEST(Sweep, RejectsUnsupportedOptions) {
  const auto mdl = model::gpt3_175b();
  const auto points =
      search::hardware_grid({hw::GpuGeneration::B200}, {8}, 128);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 512;

  search::SweepOptions top_k = opts;
  top_k.search.top_k = 3;
  EXPECT_THROW(search::run_sweep(mdl, points, top_k), std::invalid_argument);

  search::SweepOptions threads = opts;
  threads.search.threads = 2;
  EXPECT_THROW(search::run_sweep(mdl, points, threads), std::invalid_argument);

  // And the supported surface still runs (empty grid short-circuits after
  // validation).
  EXPECT_NO_THROW(search::run_sweep(mdl, {}, opts));
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
