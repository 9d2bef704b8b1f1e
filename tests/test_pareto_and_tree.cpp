// Tests for the memory-budget search and the tree-AllReduce simulation.

#include <gtest/gtest.h>

#include "comm/collective_model.hpp"
#include "search/search.hpp"
#include "sim/ring_sim.hpp"

namespace tfpe {
namespace {

TEST(Pareto, AnswersMemoryBudgetQuestions) {
  // "Fastest configuration under half the HBM" is the search at half the
  // capacity: capacity decides only feasibility, so the pruned engine must
  // give the exhaustive engine's answer there, within the budget and no
  // faster than the unconstrained optimum.
  const auto mdl = model::gpt3_175b();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  search::SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 512;
  const auto free = search::find_optimal(mdl, sys, opts).best;
  hw::SystemConfig half = sys;
  half.gpu.hbm_capacity = sys.gpu.hbm_capacity * 0.5;
  const auto budget = search::find_optimal(mdl, half, opts).best;
  opts.prune = false;
  const auto brute = search::find_optimal(mdl, half, opts).best;
  ASSERT_TRUE(free.feasible);
  ASSERT_TRUE(budget.feasible);
  EXPECT_GT(free.mem.total(), half.gpu.hbm_capacity);  // the budget binds
  EXPECT_TRUE(search::same_optimum(budget, brute));
  EXPECT_LE(budget.mem.total(), half.gpu.hbm_capacity);
  EXPECT_GE(budget.iteration(), free.iteration());
}

TEST(TreeSim, MatchesAnalyticTreeModel) {
  const auto net = hw::network_preset(hw::GpuGeneration::B200);
  for (const auto [g, nvs] : {std::pair<std::int64_t, std::int64_t>{16, 8},
                              {64, 8}, {64, 64}}) {
    const Bytes V{1e9};
    const double analytic =
        comm::tree_time(net, ops::Collective::AllReduce, V, {g, nvs}).value();
    const double sim =
        sim::simulate_tree_allreduce(net, V, g, nvs, 16).value();
    EXPECT_NEAR(sim, analytic, 0.5 * analytic) << "g=" << g << " nvs=" << nvs;
  }
}

TEST(TreeSim, BeatsRingSimAtSmallVolumeLargeGroup) {
  const auto net = hw::network_preset(hw::GpuGeneration::B200);
  const Bytes V{1e5};
  const std::int64_t g = 512, nvs = 8;
  const Seconds ring =
      sim::simulate_collective(net, ops::Collective::AllReduce, V, g, nvs);
  const Seconds tree = sim::simulate_tree_allreduce(net, V, g, nvs, 4);
  EXPECT_LT(tree.value(), ring.value());
}

TEST(TreeSim, TrivialCases) {
  const auto net = hw::network_preset(hw::GpuGeneration::B200);
  EXPECT_DOUBLE_EQ(
      sim::simulate_tree_allreduce(net, Bytes(1e9), 1, 1).value(), 0.0);
  EXPECT_DOUBLE_EQ(
      sim::simulate_tree_allreduce(net, Bytes(0), 16, 8).value(), 0.0);
  EXPECT_THROW(sim::simulate_tree_allreduce(net, Bytes(1e9), 16, 8, 0),
               std::invalid_argument);
}

TEST(TreeSim, SlicingImprovesPipelining) {
  const auto net = hw::network_preset(hw::GpuGeneration::B200);
  const Seconds coarse =
      sim::simulate_tree_allreduce(net, Bytes(1e9), 64, 8, 1);
  const Seconds fine =
      sim::simulate_tree_allreduce(net, Bytes(1e9), 64, 8, 32);
  EXPECT_LT(fine.value(), coarse.value());
}

}  // namespace
}  // namespace tfpe
