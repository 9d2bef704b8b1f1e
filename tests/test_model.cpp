// Unit tests for the transformer architecture descriptions (paper §III-B).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "model/transformer.hpp"

namespace tfpe::model {
namespace {

TEST(Presets, Gpt3_1T_Dimensions) {
  const TransformerConfig m = gpt3_1t();
  EXPECT_EQ(m.seq_len, 2048);
  EXPECT_EQ(m.embed, 25600);
  EXPECT_EQ(m.heads, 160);
  EXPECT_EQ(m.depth, 128);
  EXPECT_EQ(m.hidden, 4 * 25600);
  EXPECT_EQ(m.head_dim(), 160);
}

TEST(Presets, Gpt3_1T_HasAboutATrillionParams) {
  const TransformerConfig m = gpt3_1t();
  // 12 e^2 d = 12 * 25600^2 * 128 ~ 1.007e12.
  EXPECT_NEAR(static_cast<double>(m.total_params()), 1.007e12, 0.01e12);
}

TEST(Presets, Vit64k_Dimensions) {
  const TransformerConfig m = vit_64k();
  EXPECT_EQ(m.seq_len, 64800);
  EXPECT_EQ(m.embed, 12288);
  EXPECT_EQ(m.heads, 64);
  EXPECT_EQ(m.depth, 48);
}

TEST(Presets, Vit64k_SequenceFromEra5Grid) {
  // 720 x 1440 ERA5 grid at patch size 4: (720/4) * (1440/4) = 64800.
  EXPECT_EQ(vit_64k().seq_len, (720 / 4) * (1440 / 4));
}

TEST(Presets, Gpt3_175B_HasAbout175BParams) {
  EXPECT_NEAR(static_cast<double>(gpt3_175b().total_params()), 174e9, 4e9);
}

TEST(Presets, ValidationModelsAreConsistent) {
  EXPECT_NO_THROW(gpt3_175b().validate());
  EXPECT_NO_THROW(vit_32k().validate());
}

TEST(FlopRatio, Gpt3MlpDominatesAttention) {
  // The paper: GPT3-1T has MLP:S/A FLOP ratio of roughly 2x.
  const TransformerConfig m = gpt3_1t();
  const double ratio = m.mlp_flops(1) / m.attention_flops(1);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
}

TEST(FlopRatio, VitAttentionDominatesMlp) {
  // The paper: ViT-64K has MLP:S/A FLOP ratio of roughly 0.5x.
  const TransformerConfig m = vit_64k();
  const double ratio = m.mlp_flops(1) / m.attention_flops(1);
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 0.8);
}

TEST(Validate, RejectsBadDimensions) {
  TransformerConfig m = gpt3_1t();
  m.heads = 7;  // does not divide 25600
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = gpt3_1t();
  m.depth = 0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Validate, RejectsDimsThatOverflowTheParameterCount) {
  // One overflowing product per case: embed x embed, embed x hidden,
  // x moe_experts, x depth and vocab x embed.
  const auto small = [] {
    TransformerConfig m;
    m.seq_len = 2048;
    m.embed = 4096;
    m.heads = 32;
    m.depth = 4;
    m.hidden = 16384;
    return m;
  };
  std::vector<TransformerConfig> bad(5, small());
  bad[0].embed = 2'000'000'000'000'000'000;  // heads = 1; past embed's row bound
  bad[0].heads = 1;
  bad[0].hidden = 1;
  bad[1].hidden = std::int64_t{1} << 62;
  bad[2].moe_experts = std::int64_t{1} << 40;
  bad[3].depth = std::int64_t{1} << 40;
  bad[4].vocab = std::int64_t{1} << 52;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(bad[i].validate(), std::invalid_argument) << "case " << i;
  }

  // The bound is exact: the deepest stack whose count fits passes, one
  // block more throws.
  TransformerConfig edge = small();
  edge.depth = std::numeric_limits<std::int64_t>::max() /
               edge.params_per_layer();
  EXPECT_NO_THROW(edge.validate());
  EXPECT_EQ(edge.total_params(), edge.params_per_layer() * edge.depth);
  ++edge.depth;
  EXPECT_THROW(edge.validate(), std::invalid_argument);
  EXPECT_NO_THROW(gpt_moe_1t().validate());
}

TEST(ParamsPerLayer, MatchesClosedForm) {
  const TransformerConfig m = gpt3_175b();
  const std::int64_t e = m.embed, f = m.hidden;
  const std::int64_t expected =
      4 * e * e + 4 * e + 2 * e * f + f + e + 4 * e;
  EXPECT_EQ(m.params_per_layer(), expected);
  EXPECT_EQ(m.total_params(), expected * m.depth);
}

}  // namespace
}  // namespace tfpe::model
