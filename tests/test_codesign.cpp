// Architecture x configuration co-design engine: the shape-family
// generator's iso-parameter / divisibility / lint properties, the
// architecture-level floor's soundness against the per-configuration
// bounds, and the product search's bitwise contract against find_optimal —
// single-shape golden runs across the engine arms, full-matrix equality
// with shape pruning off, winner preservation with it on, the
// (shape, n_gpus) candidate-memo aliasing regression, and thread-count
// invariance of the CodesignStats work counters. Suites are named
// Codesign/ShapeFamily on purpose — the tsan CTest preset filters on
// Codesign.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/lower_bounds.hpp"
#include "model/shape_family.hpp"
#include "search/codesign.hpp"
#include "search/search.hpp"
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

/// A small, FLOP-diverse iso-parameter family around GPT3-175B's budget
/// (wide depth range and aspect window so the shapes' attention floors
/// actually spread).
std::vector<model::TransformerConfig> small_family() {
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.05;
  fam.depths = {48, 96, 192};
  fam.heads = {64, 96};
  fam.head_dims = {128};
  fam.aspect_min = 1.0;
  fam.aspect_max = 8.0;
  auto shapes = model::shape_family(model::gpt3_175b(), fam);
  EXPECT_GE(shapes.size(), 3u);
  return shapes;
}

TEST(ShapeFamily, ShapesMeetToleranceAndDivisibility) {
  const auto base = model::gpt3_1t();
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.03;
  fam.depth_min = 64;
  fam.depth_max = 192;
  fam.depth_step = 32;
  fam.heads_min = 64;
  fam.heads_max = 224;
  fam.heads_step = 32;
  fam.head_dims = {128, 160};
  fam.aspect_min = 1.0;
  fam.aspect_max = 8.0;
  fam.kv_heads = {0, 8};
  const auto shapes = model::shape_family(base, fam);
  ASSERT_GE(shapes.size(), 20u);
  const double target = static_cast<double>(base.total_params());
  for (const auto& s : shapes) {
    // validate() already ran inside shape_family; re-check the family
    // invariants explicitly.
    EXPECT_EQ(s.embed % s.heads, 0) << s.name;
    EXPECT_EQ(s.hidden % fam.hidden_multiple, 0) << s.name;
    if (s.kv_heads > 0) EXPECT_EQ(s.heads % s.kv_heads, 0) << s.name;
    EXPECT_EQ(s.seq_len, base.seq_len) << s.name;
    const double total = static_cast<double>(s.total_params());
    EXPECT_LE(std::abs(total - target), fam.tolerance * target) << s.name;
    const double aspect = static_cast<double>(s.hidden) /
                          static_cast<double>(s.embed);
    EXPECT_GE(aspect, fam.aspect_min) << s.name;
    EXPECT_LE(aspect, fam.aspect_max) << s.name;
  }
}

TEST(ShapeFamily, EveryShapeLintsClean) {
  for (const auto& s : small_family()) {
    parallel::ParallelConfig cfg;
    cfg.n1 = 8;
    cfg.np = 1;
    cfg.nd = 1;
    cfg.microbatches = 1;
    const auto report = analysis::lint_config(s, cfg, 2);
    EXPECT_TRUE(report.clean()) << s.name << "\n" << report.summary();
  }
}

TEST(ShapeFamily, RejectsMalformedOptions) {
  const auto base = model::gpt3_175b();
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.0;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.tolerance = 1.5;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.depth_min = 64;
  fam.depth_max = 32;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.depth_step = 0;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.head_dims = {};
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.head_dims = {0};
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.aspect_min = 4.0;
  fam.aspect_max = 2.0;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.hidden_multiple = 0;
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.kv_heads = {};
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
  fam = {};
  fam.moe_experts = {-1};
  EXPECT_THROW(model::shape_family(base, fam), std::invalid_argument);
}

/// The architecture-level floor must sit below every candidate's
/// per-configuration bound — the property that keeps shape pruning exact.
TEST(Codesign, ShapeFloorBelowEveryConfigFloor) {
  const auto sys = hw::make_system(hw::GpuGeneration::H200, 8, 256);
  search::SearchOptions opts;
  opts.global_batch = 1024;
  opts.allow_zero3 = true;
  opts.interleave_candidates = {1, 2};
  for (const auto& shape : small_family()) {
    const double floor =
        core::shape_time_floor(shape, sys, sys.n_gpus, opts.global_batch);
    EXPECT_GT(floor, 0.0) << shape.name;
    const auto configs = search::expand_candidates(shape, sys, opts);
    ASSERT_FALSE(configs.empty()) << shape.name;
    for (const auto& cfg : configs) {
      if (cfg.invalid_reason(shape, sys, opts.global_batch)) continue;
      const auto bounds =
          core::search_bounds(shape, sys, cfg, opts.global_batch);
      EXPECT_LE(floor, bounds.time_floor * (1.0 + 1e-12))
          << shape.name << " " << cfg.describe();
    }
  }
}

/// Golden satellite: a single-shape co-design run IS find_optimal, bit for
/// bit, with prune on and off (warm starts exercised too — with one shape
/// they reduce to the PR 6 chain seeds).
TEST(Codesign, SingleShapeReproducesFindOptimal) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 256);
  for (bool prune : {false, true}) {
    search::CodesignOptions opts;
    opts.sweep.search.global_batch = 1024;
    opts.sweep.search.prune = prune;
    opts.sweep.warm_start = true;
    opts.sweep.threads = 2;
    const auto run = search::run_codesign({mdl}, points, opts);
    ASSERT_EQ(run.best.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      ASSERT_FALSE(run.pruned[0][p]);
      const auto direct = search::find_optimal(mdl, points[p],
                                               opts.sweep.search);
      const std::string label =
          "point " + std::to_string(p) + " prune=" + std::to_string(prune);
      expect_same_optimum(direct.best, run.per_shape[0][p], label);
      expect_same_optimum(direct.best, run.best[p].best, label);
      if (direct.best.feasible) EXPECT_EQ(run.best[p].shape, 0u) << label;
    }
  }
}

/// With shape pruning off, the full (shape x point) matrix is exact and
/// the winner is the shape-order better_result reduction — on a two-
/// generation grid and on a single-generation NVS-axis chain.
TEST(Codesign, MatrixMatchesFindOptimalPerShape) {
  const auto shapes = small_family();
  for (const auto& points :
       {search::hardware_grid(
            {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {8}, 128),
        search::hardware_grid({hw::GpuGeneration::B200}, {4, 16}, 128)}) {
    search::CodesignOptions opts;
    opts.sweep.search.global_batch = 512;
    opts.sweep.warm_start = true;
    opts.sweep.threads = 2;
    opts.prune_shapes = false;
    const auto run = search::run_codesign(shapes, points, opts);
    EXPECT_EQ(run.stats.shapes_pruned, 0u);
    EXPECT_EQ(run.stats.shapes_evaluated, shapes.size() * points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      core::EvalResult ref;
      ref.reason = "no feasible configuration";
      std::size_t ref_shape = search::CodesignResult::kNoShape;
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const auto direct =
            search::find_optimal(shapes[s], points[p], opts.sweep.search);
        expect_same_optimum(direct.best, run.per_shape[s][p],
                            shapes[s].name + " point " + std::to_string(p));
        if (search::better_result(direct.best, ref)) {
          ref = direct.best;
          ref_shape = s;
        }
      }
      expect_same_optimum(ref, run.best[p].best,
                          "winner point " + std::to_string(p));
      EXPECT_EQ(run.best[p].shape, ref_shape) << "point " << p;
    }
  }
}

/// Shape pruning must not move any winner, and every pair it skips is
/// flagged with the shape-pruned reason instead of a fabricated result.
TEST(Codesign, ShapePruningPreservesWinnersBitwise) {
  const auto shapes = small_family();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200}, {4, 16}, 128);
  search::CodesignOptions exhaustive;
  exhaustive.sweep.search.global_batch = 512;
  exhaustive.sweep.warm_start = true;
  exhaustive.sweep.threads = 2;
  exhaustive.prune_shapes = false;
  search::CodesignOptions pruned = exhaustive;
  pruned.prune_shapes = true;
  const auto ref = search::run_codesign(shapes, points, exhaustive);
  const auto got = search::run_codesign(shapes, points, pruned);
  EXPECT_EQ(got.stats.shapes_pruned + got.stats.shapes_evaluated,
            shapes.size() * points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    expect_same_optimum(ref.best[p].best, got.best[p].best,
                        "winner point " + std::to_string(p));
    EXPECT_EQ(ref.best[p].shape, got.best[p].shape) << "point " << p;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      if (got.pruned[s][p]) {
        EXPECT_FALSE(got.per_shape[s][p].feasible);
        EXPECT_NE(got.per_shape[s][p].reason.find("shape pruned"),
                  std::string::npos);
      } else {
        expect_same_optimum(ref.per_shape[s][p], got.per_shape[s][p],
                            shapes[s].name + " point " + std::to_string(p));
      }
    }
  }
}

/// Work counters are thread-invariant: shapes reduce sequentially, chains
/// are sequential inside, so only the stage profile may differ.
TEST(Codesign, StatsAreThreadInvariant) {
  const auto shapes = small_family();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 8, 16}, 128);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.warm_start = true;
  search::CodesignStats stats[2];
  std::vector<std::vector<std::size_t>> evaluated[2];
  for (int i = 0; i < 2; ++i) {
    opts.sweep.threads = i == 0 ? 1 : 4;
    const auto run = search::run_codesign(shapes, points, opts);
    stats[i] = run.stats;
    evaluated[i] = run.evaluated;
  }
  EXPECT_EQ(evaluated[0], evaluated[1]);
  EXPECT_EQ(stats[0].feasible_points, stats[1].feasible_points);
  EXPECT_EQ(stats[0].shapes_pruned, stats[1].shapes_pruned);
  EXPECT_EQ(stats[0].shapes_evaluated, stats[1].shapes_evaluated);
  EXPECT_EQ(stats[0].feasible_shape_points, stats[1].feasible_shape_points);
  EXPECT_EQ(stats[0].enumerations, stats[1].enumerations);
  EXPECT_EQ(stats[0].candidates, stats[1].candidates);
  EXPECT_EQ(stats[0].evaluated, stats[1].evaluated);
  EXPECT_EQ(stats[0].bound_pruned, stats[1].bound_pruned);
  EXPECT_EQ(stats[0].memory_pruned, stats[1].memory_pruned);
  EXPECT_GT(stats[0].placement_floor_pruned, 0u);
  EXPECT_EQ(stats[0].placement_floor_pruned, stats[1].placement_floor_pruned);
  EXPECT_EQ(stats[0].batch_calls, stats[1].batch_calls);
  EXPECT_EQ(stats[0].batch_placements, stats[1].batch_placements);
  EXPECT_EQ(stats[0].warm_seeded, stats[1].warm_seeded);
  EXPECT_EQ(stats[0].warm_seed_feasible, stats[1].warm_seed_feasible);
  EXPECT_EQ(stats[0].signature_compiles, stats[1].signature_compiles);
  EXPECT_EQ(stats[0].signature_lowers, stats[1].signature_lowers);
  EXPECT_EQ(stats[0].build_layer_calls, stats[1].build_layer_calls);
  EXPECT_EQ(stats[0].placement_sets, stats[1].placement_sets);
}

/// The placement-floor screen leaves every per-shape optimum bit-identical
/// to the unscreened scan (prune = false, which also never screens).
TEST(Codesign, PlacementFloorScreenKeepsOptima) {
  const auto shapes = small_family();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 128);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.threads = 2;
  opts.prune_shapes = false;
  const auto screened = search::run_codesign(shapes, points, opts);
  opts.sweep.search.prune = false;
  const auto full = search::run_codesign(shapes, points, opts);
  EXPECT_GT(screened.stats.placement_floor_pruned, 0u);
  EXPECT_EQ(full.stats.placement_floor_pruned, 0u);
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_TRUE(search::same_optimum(screened.per_shape[s][p],
                                       full.per_shape[s][p]))
          << "shape " << s << " point " << p;
    }
  }
}

/// Above full overlap (tp_overlap > 1) exposed communication is negative
/// and the floor is not a bound: pruning then changed the answer (GPT3-175B
/// at batch 512 on 128 GPUs gave PP=1 DP=4 m=128 against the exhaustive
/// PP=4 DP=1 m=512). run_codesign, and run_sweep through it, reject such
/// options — and any outside [0, 1] — before any work.
TEST(Codesign, RejectsOutOfDomainEvalOptions) {
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 128);
  for (const double bad : {1.5, -0.1, std::nan("")}) {
    search::CodesignOptions opts;
    opts.sweep.search.global_batch = 512;
    opts.sweep.search.eval.tp_overlap = bad;
    opts.sweep.threads = 2;
    EXPECT_THROW(search::run_codesign(small_family(), points, opts),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(search::run_sweep(model::gpt3_175b(), points, opts.sweep),
                 std::invalid_argument)
        << bad;
  }
}

/// The per-pair work matrix: a floor-pruned pair is never scanned, so it
/// charges no evaluations, and the matrix sums to the run's counter.
TEST(Codesign, PrunedPairsChargeNoWork) {
  // Dense + MoE variants of the tests/data/codesign_smoke.tfpe family: the
  // MoE shapes' floors sit above the dense incumbents, so pairs prune — on
  // this grid some shapes at only part of the points, so pruned and
  // scanned pairs share one shape's reduction.
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.05;
  fam.depths = {48, 96};
  fam.heads = {64, 96, 128};
  fam.head_dims = {128};
  fam.aspect_min = 1.0;
  fam.aspect_max = 8.0;
  fam.moe_experts = {0, 4};
  const auto shapes = model::shape_family(model::gpt3_175b(), fam);
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8, 16}, 256);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 128;
  opts.sweep.warm_start = true;
  opts.sweep.threads = 2;
  const auto run = search::run_codesign(shapes, points, opts);
  ASSERT_GT(run.stats.shapes_pruned, 0u);
  ASSERT_EQ(run.evaluated.size(), shapes.size());
  std::size_t total = 0;
  std::size_t pruned = 0;
  std::size_t partly_pruned_shapes = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    ASSERT_EQ(run.evaluated[s].size(), points.size());
    std::size_t shape_pruned = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (run.pruned[s][p]) {
        ++shape_pruned;
        EXPECT_EQ(run.evaluated[s][p], 0u) << shapes[s].name << " point " << p;
      }
      total += run.evaluated[s][p];
    }
    if (shape_pruned > 0 && shape_pruned < points.size()) {
      ++partly_pruned_shapes;
    }
    pruned += shape_pruned;
  }
  EXPECT_GT(partly_pruned_shapes, 0u);
  EXPECT_EQ(pruned, run.stats.shapes_pruned);
  EXPECT_EQ(total, run.stats.evaluated);
  std::size_t winners = 0;
  for (const auto& w : run.best) winners += w.best.feasible ? 1 : 0;
  EXPECT_EQ(winners, run.stats.feasible_points);
}

/// Satellite regression: the candidate memo keys on the FULL (shape,
/// n_gpus) pair — two different shapes at the same scale must not alias.
TEST(Codesign, CandidateCacheDoesNotAliasShapesAtEqualScale) {
  const auto shapes = small_family();
  ASSERT_GE(shapes.size(), 2u);
  const auto a = shapes.front();
  const auto b = shapes.back();
  ASSERT_NE(search::shape_key(a, 128), search::shape_key(b, 128));
  const auto sys = hw::make_system(hw::GpuGeneration::A100, 8, 128);
  search::SearchOptions opts;
  opts.global_batch = 512;
  search::CandidateCache cache;
  const auto la = cache.get(a, sys, opts);
  const auto lb = cache.get(b, sys, opts);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_NE(la.get(), lb.get());
  // Each memoized list is exactly the direct enumeration for its shape.
  const auto da = search::expand_candidates(a, sys, opts);
  const auto db = search::expand_candidates(b, sys, opts);
  ASSERT_EQ(la->size(), da.size());
  ASSERT_EQ(lb->size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ((*la)[i].describe(), da[i].describe());
  }
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ((*lb)[i].describe(), db[i].describe());
  }
  // Same shape, same scale: a hit sharing the same immutable list.
  const auto la2 = cache.get(a, sys, opts);
  EXPECT_EQ(la2.get(), la.get());
  EXPECT_EQ(cache.hits(), 1u);
  // Same shape, different scale: a distinct entry.
  const auto sys2 = hw::make_system(hw::GpuGeneration::A100, 8, 64);
  const auto la64 = cache.get(a, sys2, opts);
  EXPECT_NE(la64.get(), la.get());
  EXPECT_EQ(cache.builds(), 3u);
}

TEST(Codesign, RejectsUnsupportedOptions) {
  const auto points = search::hardware_grid({hw::GpuGeneration::A100}, {8},
                                            64);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 256;
  opts.sweep.search.top_k = 3;
  EXPECT_THROW(
      search::run_codesign({model::gpt3_175b()}, points, opts),
      std::invalid_argument);
  opts.sweep.search.top_k = 0;
  opts.sweep.search.threads = 2;
  EXPECT_THROW(
      search::run_codesign({model::gpt3_175b()}, points, opts),
      std::invalid_argument);
}

}  // namespace
}  // namespace tfpe
