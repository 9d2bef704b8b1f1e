// Architecture x configuration co-design engine: the shape-family
// generator's iso-parameter / divisibility / lint properties, the
// architecture-level floor's soundness against the per-configuration
// bounds, and the product search's bitwise contract against find_optimal —
// single-shape golden runs across the engine arms, full-matrix equality
// with shape pruning off, winner preservation with it on, one candidate
// space per (shape, n_gpus), and thread-count invariance of the
// CodesignStats work counters. Suites are named
// Codesign/ShapeFamily on purpose — the tsan CTest preset filters on
// Codesign.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
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
          core::search_bounds(shape, sys, cfg, opts.global_batch, opts.eval);
      EXPECT_LE(floor, bounds.time_floor * (1.0 + 1e-12))
          << shape.name << " " << cfg.describe();
    }
  }
}

/// Golden satellite: a single-shape co-design run IS find_optimal, bit for
/// bit (warm starts exercised too — with one shape they reduce to the
/// chain seeds).
TEST(Codesign, SingleShapeReproducesFindOptimal) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 256);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 1024;
  opts.sweep.warm_start = true;
  opts.sweep.threads = 2;
  const auto run = search::run_codesign({mdl}, points, opts);
  ASSERT_EQ(run.best.size(), points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ASSERT_FALSE(run.pruned[0][p]);
    const auto direct = search::find_optimal(mdl, points[p],
                                             opts.sweep.search);
    const std::string label = "point " + std::to_string(p);
    expect_same_optimum(direct.best, run.per_shape[0][p], label);
    expect_same_optimum(direct.best, run.best[p].best, label);
    if (direct.best.feasible) EXPECT_EQ(run.best[p].shape, 0u) << label;
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

/// Runs `shapes` x `points` with shape pruning on and off and checks the
/// pruned run against the exhaustive one: the same winners, every
/// unpruned entry bitwise equal, every floor-pruned or cut entry flagged
/// and, by its exhaustive optimum, infeasible or strictly slower than the
/// winner. Returns the pruned run.
search::CodesignResult expect_cuts_exact(
    const std::vector<model::TransformerConfig>& shapes,
    const std::vector<hw::SystemConfig>& points,
    const search::CodesignOptions& opts) {
  search::CodesignOptions exhaustive = opts;
  exhaustive.prune_shapes = false;
  search::CodesignOptions pruned = opts;
  pruned.prune_shapes = true;
  const auto ref = search::run_codesign(shapes, points, exhaustive);
  auto got = search::run_codesign(shapes, points, pruned);
  std::size_t n_pruned = 0;
  std::size_t n_cut = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::string at = " point " + std::to_string(p);
    EXPECT_EQ(ref.best[p].shape, got.best[p].shape) << at;
    expect_same_optimum(ref.best[p].best, got.best[p].best, "winner" + at);
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const std::string label = shapes[s].name + at;
      const core::EvalResult& direct = ref.per_shape[s][p];
      if (got.pruned[s][p] == 0) {
        expect_same_optimum(direct, got.per_shape[s][p], label);
        continue;
      }
      n_pruned += got.pruned[s][p] == 1;
      n_cut += got.pruned[s][p] == 2;
      EXPECT_LE(got.pruned[s][p], 2) << label;
      EXPECT_FALSE(got.per_shape[s][p].feasible) << label;
      EXPECT_NE(got.per_shape[s][p].reason.find("shape pruned"),
                std::string::npos)
          << label;
      if (direct.feasible) {
        EXPECT_TRUE(ref.best[p].best.feasible &&
                    direct.iteration() > ref.best[p].best.iteration())
            << label;
      }
    }
  }
  EXPECT_EQ(n_pruned, got.stats.shapes_pruned);
  EXPECT_EQ(n_cut, got.stats.shapes_cut);
  EXPECT_LE(got.stats.shapes_cut, got.stats.shapes_evaluated);
  EXPECT_EQ(got.stats.shapes_pruned + got.stats.shapes_evaluated,
            shapes.size() * points.size());
  return got;
}

/// Each scan starts at the point's cross-shape incumbent, and a pair that
/// reaches nothing at or below it is cut. The cut is strictly-above: a
/// duplicate of the winning shape (same dimensions, another name) ties the
/// winner exactly, so its pairs there are scanned and reported bitwise
/// equal to the original's, never cut. With the winner moved to the end
/// of the family, a later shape wins from a finite starting incumbent.
TEST(Codesign, IncumbentCutKeepsExactEntries) {
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 128);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.warm_start = true;
  opts.sweep.threads = 2;
  const auto family = small_family();
  const auto base = expect_cuts_exact(family, points, opts);
  EXPECT_GT(base.stats.shapes_cut, 0u);

  // The shape that wins the most points.
  std::vector<std::size_t> wins(family.size(), 0);
  for (const auto& w : base.best) {
    ASSERT_NE(w.shape, search::CodesignResult::kNoShape);
    ++wins[w.shape];
  }
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(wins.begin(), wins.end()) - wins.begin());

  auto with_dup = family;
  with_dup.push_back(family[top]);
  with_dup.back().name += "-dup";
  const std::size_t dup = with_dup.size() - 1;
  const auto run = expect_cuts_exact(with_dup, points, opts);
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (run.best[p].shape != top) continue;
    const std::string at = "point " + std::to_string(p);
    EXPECT_EQ(run.pruned[dup][p], 0) << at;
    expect_same_optimum(run.per_shape[top][p], run.per_shape[dup][p],
                        "duplicate " + at);
  }

  auto winner_last = family;
  std::rotate(winner_last.begin() + static_cast<std::ptrdiff_t>(top),
              winner_last.begin() + static_cast<std::ptrdiff_t>(top) + 1,
              winner_last.end());
  const auto later = expect_cuts_exact(winner_last, points, opts);
  std::size_t later_wins = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (later.best[p].shape + 1 == winner_last.size()) {
      // It won from the incumbent of the shapes before it.
      EXPECT_EQ(later.pruned.back()[p], 0);
      ++later_wins;
    }
  }
  EXPECT_GT(later_wins, 0u);
}

/// A MoE-only family, where the candidate and prefix floors carry the
/// expert MLP terms: with shape pruning off every pair is find_optimal's
/// optimum bit for bit, and with it on the winners stay and every pruned
/// or cut pair is provably slower.
TEST(Codesign, MoeFamilyMatchesFindOptimalPerShape) {
  model::ShapeFamilyOptions fam;
  fam.tolerance = 0.05;
  fam.depths = {48, 96};
  fam.heads = {64, 96, 128};
  fam.head_dims = {128};
  fam.aspect_min = 1.0;
  fam.aspect_max = 8.0;
  fam.moe_experts = {4};
  const auto shapes = model::shape_family(model::gpt3_175b(), fam);
  ASSERT_GE(shapes.size(), 2u);
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 64);
  for (auto strategy :
       {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D}) {
    SCOPED_TRACE(parallel::to_string(strategy));
    search::CodesignOptions opts;
    opts.sweep.search.global_batch = 256;
    opts.sweep.search.strategy = strategy;
    opts.sweep.warm_start = true;
    opts.sweep.threads = 2;
    opts.prune_shapes = false;
    const auto run = search::run_codesign(shapes, points, opts);
    std::size_t feasible = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        const auto direct =
            search::find_optimal(shapes[s], points[p], opts.sweep.search);
        feasible += direct.best.feasible ? 1 : 0;
        expect_same_optimum(direct.best, run.per_shape[s][p],
                            shapes[s].name + " point " + std::to_string(p));
      }
    }
    EXPECT_GT(feasible, 0u);
    expect_cuts_exact(shapes, points, opts);
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
  EXPECT_EQ(stats[0].shapes_cut, stats[1].shapes_cut);
  EXPECT_EQ(stats[0].feasible_shape_points, stats[1].feasible_shape_points);
  EXPECT_EQ(stats[0].enumerations, stats[1].enumerations);
  EXPECT_EQ(stats[0].candidates, stats[1].candidates);
  EXPECT_EQ(stats[0].evaluated, stats[1].evaluated);
  EXPECT_EQ(stats[0].bound_pruned, stats[1].bound_pruned);
  EXPECT_EQ(stats[0].subtree_pruned, stats[1].subtree_pruned);
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
/// to find_optimal's exhaustive sweep (prune = false: no bounds, no screen,
/// every placement through the evaluate_with_layer oracle).
TEST(Codesign, PlacementFloorScreenKeepsOptima) {
  const auto shapes = small_family();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 128);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.threads = 2;
  opts.prune_shapes = false;
  const auto screened = search::run_codesign(shapes, points, opts);
  EXPECT_GT(screened.stats.placement_floor_pruned, 0u);
  search::SearchOptions exhaustive = opts.sweep.search;
  exhaustive.prune = false;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      const auto full = search::find_optimal(shapes[s], points[p], exhaustive);
      EXPECT_TRUE(search::same_optimum(screened.per_shape[s][p], full.best))
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

/// The per-pair work matrix: a floor-pruned pair (pruned == 1) is never
/// scanned, so it charges no evaluations; a cut pair (pruned == 2) was
/// scanned and keeps its work; the matrix sums to the run's counter.
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
  std::size_t cut = 0;
  std::size_t partly_pruned_shapes = 0;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    ASSERT_EQ(run.evaluated[s].size(), points.size());
    std::size_t shape_pruned = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (run.pruned[s][p] == 1) {
        ++shape_pruned;
        EXPECT_EQ(run.evaluated[s][p], 0u) << shapes[s].name << " point " << p;
      } else if (run.pruned[s][p] == 2) {
        ++cut;
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
  EXPECT_EQ(cut, run.stats.shapes_cut);
  EXPECT_EQ(total, run.stats.evaluated);
  std::size_t winners = 0;
  for (const auto& w : run.best) winners += w.best.feasible ? 1 : 0;
  EXPECT_EQ(winners, run.stats.feasible_points);
}

/// Every scanned (shape, GPU count) gets its own candidate space, the
/// direct enumeration for that shape: two shapes at the same scale never
/// share one, and one shape at two scales builds two.
TEST(Codesign, EachShapeEnumeratesItsOwnSpace) {
  const auto shapes = small_family();
  std::vector<hw::SystemConfig> points;
  for (const std::int64_t n : {128, 64}) {
    points.push_back(hw::make_system(hw::GpuGeneration::A100, 8, n));
  }
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.threads = 1;
  opts.prune_shapes = false;
  const auto run = search::run_codesign(shapes, points, opts);
  std::size_t candidates = 0;
  for (const auto& shape : shapes) {
    for (const auto& sys : points) {
      candidates += search::expand_candidates(shape, sys, opts.sweep.search)
                        .size();
    }
  }
  EXPECT_EQ(run.stats.enumerations, shapes.size() * points.size());
  EXPECT_EQ(run.stats.candidates, candidates);
  // A space aliased across shapes would scan the wrong leaves.
  for (const std::size_t s : {std::size_t{0}, shapes.size() - 1}) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_same_optimum(
          search::find_optimal(shapes[s], points[p], opts.sweep.search).best,
          run.per_shape[s][p], shapes[s].name + " point " + std::to_string(p));
    }
  }
}

/// A warm seed is only the chain predecessor's optimum: on a grid whose
/// chains are one point long no scan is seeded, across however many
/// shapes, and every entry equals the cold run's.
TEST(Codesign, WarmSeedsStayOnTheirChain) {
  const auto shapes = small_family();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {8}, 128);
  search::CodesignOptions opts;
  opts.sweep.search.global_batch = 512;
  opts.sweep.threads = 1;
  opts.prune_shapes = false;
  const auto cold = search::run_codesign(shapes, points, opts);
  opts.sweep.warm_start = true;
  const auto warm = search::run_codesign(shapes, points, opts);
  EXPECT_EQ(warm.stats.shapes_evaluated, shapes.size() * points.size());
  EXPECT_GT(warm.stats.feasible_shape_points, points.size());
  EXPECT_EQ(warm.stats.warm_seeded, 0u);
  EXPECT_EQ(warm.stats.evaluated, cold.stats.evaluated);
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      expect_same_optimum(cold.per_shape[s][p], warm.per_shape[s][p],
                          shapes[s].name + " point " + std::to_string(p));
    }
  }
}

}  // namespace
}  // namespace tfpe
