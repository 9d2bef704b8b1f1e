// Tests for the mixture-of-experts extension: routing FLOPs, AllToAll
// volumes, expert-parallel weight sharding and end-to-end search behavior.

#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/moe_mlp.hpp"
#include "search/search.hpp"

namespace tfpe {
namespace {

using parallel::ParallelConfig;
using parallel::TpStrategy;

model::TransformerConfig tiny_moe(std::int64_t experts = 8,
                                  std::int64_t top_k = 2) {
  model::TransformerConfig m{"tiny-moe", 256, 128, 8, 4, 512};
  m.moe_experts = experts;
  m.moe_top_k = top_k;
  m.validate();
  return m;
}

ParallelConfig cfg_1d(std::int64_t nt, std::int64_t nd) {
  ParallelConfig c;
  c.strategy = TpStrategy::TP1D;
  c.n1 = nt;
  c.nd = nd;
  return c;
}

TEST(MoeModel, ParamsScaleWithExperts) {
  const auto dense = [] {
    model::TransformerConfig m{"d", 256, 128, 8, 4, 512};
    m.validate();
    return m;
  }();
  const auto moe = tiny_moe(8);
  // MLP params multiplied by E (plus the router); attention unchanged.
  EXPECT_GT(moe.params_per_layer(), 5 * dense.params_per_layer());
  EXPECT_LT(moe.params_per_layer(), 9 * dense.params_per_layer());
}

TEST(MoeModel, PresetIsTrillionClass) {
  const auto m = model::gpt_moe_1t();
  EXPECT_GT(m.total_params(), 1.0e12);
  EXPECT_EQ(m.moe_experts, 64);
  EXPECT_EQ(m.moe_top_k, 2);
}

TEST(MoeModel, ValidatesTopK) {
  auto m = tiny_moe();
  m.moe_top_k = 9;  // > experts
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.moe_top_k = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(MoeLayer, ExpertParallelDegree) {
  const auto m = tiny_moe(8);
  EXPECT_EQ(parallel::expert_parallel_degree(m, cfg_1d(1, 4)), 4);
  EXPECT_EQ(parallel::expert_parallel_degree(m, cfg_1d(1, 16)), 8);
  EXPECT_EQ(parallel::expert_parallel_degree(m, cfg_1d(1, 1)), 1);
}

TEST(MoeLayer, OpsIncludeRouterDispatchCombine) {
  const auto m = tiny_moe();
  const auto lc = parallel::build_layer(m, cfg_1d(2, 4), 2);
  std::vector<std::string> names;
  for (const auto& op : lc.ops) names.emplace_back(op.name);
  for (const char* expected : {"moe_router", "moe_dispatch", "moe_fc1",
                               "moe_gelu", "moe_fc2", "moe_combine"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // The dense MLP must be gone.
  EXPECT_EQ(std::find(names.begin(), names.end(), "mlp_fc1"), names.end());
}

TEST(MoeLayer, AllToAllVolumeMatchesRoutedTokens) {
  const auto m = tiny_moe(8, 2);
  const std::int64_t B = 2, nt = 2;
  const auto lc = parallel::build_layer(m, cfg_1d(nt, 4), B);
  Bytes a2a;
  int a2a_count = 0;
  for (const auto& op : lc.ops) {
    for (const auto& r : op.fwd_comm) {
      if (r.collective == ops::Collective::AllToAll) {
        EXPECT_EQ(r.group, ops::CommGroup::DP);
        a2a += r.bytes;
        ++a2a_count;
      }
    }
  }
  EXPECT_EQ(a2a_count, 2);  // dispatch + combine
  // Each: 2 bytes * (B*l/nt tokens) * e * top_k.
  const double expected = 2.0 * (2.0 * B * m.seq_len / nt * m.embed * 2.0);
  EXPECT_DOUBLE_EQ(a2a.value(), expected);
}

TEST(MoeLayer, ExpertFlopsScaleWithTopK) {
  const auto top1 = parallel::build_layer(tiny_moe(8, 1), cfg_1d(2, 4), 2);
  const auto top2 = parallel::build_layer(tiny_moe(8, 2), cfg_1d(2, 4), 2);
  auto fc1_flops = [](const parallel::LayerCost& lc) {
    for (const auto& op : lc.ops) {
      if (op.name == "moe_fc1") return op.fwd_flops.value();
    }
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(fc1_flops(top2), 2.0 * fc1_flops(top1));
}

TEST(MoeLayer, WeightsShrinkWithExpertParallelism) {
  const auto m = tiny_moe(8);
  const double w1 = parallel::build_layer(m, cfg_1d(2, 1), 1).weight_params;
  const double w8 = parallel::build_layer(m, cfg_1d(2, 8), 1).weight_params;
  EXPECT_GT(w1, 3.0 * w8);  // 8 local experts vs 1
}

TEST(MoeConfig, RejectsSumma) {
  const auto m = tiny_moe();
  ParallelConfig c;
  c.strategy = TpStrategy::Summa2D;
  c.n1 = 2;
  c.n2 = 2;
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  EXPECT_EQ(*c.invalid_reason(m, sys, 64), "MoE is not supported with SUMMA");
}

TEST(MoeConfig, RequiresAlignedExpertSharding) {
  const auto m = tiny_moe(8);
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  ParallelConfig c = cfg_1d(1, 3);
  c.microbatches = 1;
  // nd = 3 does not divide 8 experts.
  EXPECT_EQ(*c.invalid_reason(m, sys, 3),
            "nd and moe_experts must divide each other");
}

TEST(MoeSearch, FindsFeasibleTrillionConfig) {
  const auto m = model::gpt_moe_1t();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 2048);
  search::SearchOptions opts;
  opts.strategy = TpStrategy::TP1D;
  opts.global_batch = 2048;
  const auto r = search::find_optimal(m, sys, opts);
  ASSERT_TRUE(r.best.feasible) << r.best.reason;
  // Expert parallelism demands real DP width.
  EXPECT_GE(r.best.cfg.nd, 8);
  // AllToAll shows up as data-parallel-group communication.
  EXPECT_GT(r.best.time.tp_comm + r.best.time.dp_comm, 0.0);
}

TEST(MoeSearch, SummaSpaceIsEmpty) {
  const auto m = tiny_moe();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  search::EnumerationOptions opts;
  opts.strategy = TpStrategy::Summa2D;
  opts.global_batch = 64;
  EXPECT_TRUE(search::expand_candidates(m, sys, opts).empty());
}

TEST(MoeVsDense, ActiveComputeAdvantage) {
  // A top-2-of-64 MoE with the same total parameter count as a dense model
  // spends far fewer FLOPs per token.
  const auto moe = model::gpt_moe_1t();
  const auto dense = model::gpt3_1t();
  ASSERT_NEAR(static_cast<double>(moe.total_params()),
              static_cast<double>(dense.total_params()), 0.5e12);
  const double moe_flops = moe.mlp_flops(1) + moe.attention_flops(1);
  const double dense_flops = dense.mlp_flops(1) + dense.attention_flops(1);
  EXPECT_LT(moe_flops, 0.25 * dense_flops);
}

}  // namespace
}  // namespace tfpe
