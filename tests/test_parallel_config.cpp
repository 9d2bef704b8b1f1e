// Tests for the parallel-configuration divisibility/feasibility rules (S3).

#include <gtest/gtest.h>

#include "parallel/parallel_config.hpp"

namespace tfpe::parallel {
namespace {

model::TransformerConfig mdl() { return model::gpt3_1t(); }
hw::SystemConfig sys() { return hw::make_system(hw::GpuGeneration::B200, 8, 16384); }

ParallelConfig base() {
  ParallelConfig c;
  c.strategy = TpStrategy::TP1D;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  c.microbatches = 128;
  c.nvs1 = 8;
  return c;
}

TEST(ParallelConfig, PackPlacementTable) {
  // (nvs_domain, n1, n2, np, nd) -> (nvs1, nvs2, nvsp, nvsd): TP1 takes the
  // largest divisor that fits, then TP2, PP and DP share what is left.
  struct Row {
    std::int64_t domain, n1, n2, np, nd, nvs1, nvs2, nvsp, nvsd;
  };
  const Row rows[] = {
      {8, 8, 1, 16, 4, 8, 1, 1, 1},  {8, 4, 1, 16, 4, 4, 1, 2, 1},
      {8, 2, 2, 1, 8, 2, 2, 1, 2},   {8, 6, 1, 3, 4, 6, 1, 1, 1},
      {8, 3, 1, 5, 16, 3, 1, 1, 2},  {8, 4, 1, 4, 1, 4, 1, 2, 1},
      {72, 8, 1, 8, 4, 8, 1, 8, 1},  {4, 1, 1, 1, 1, 1, 1, 1, 1},
      {1, 8, 1, 8, 8, 1, 1, 1, 1},
  };
  for (const Row& r : rows) {
    ParallelConfig c;
    c.n1 = r.n1;
    c.n2 = r.n2;
    c.np = r.np;
    c.nd = r.nd;
    c.pack_placement(r.domain);
    EXPECT_EQ(c.nvs1, r.nvs1) << c.describe();
    EXPECT_EQ(c.nvs2, r.nvs2) << c.describe();
    EXPECT_EQ(c.nvsp, r.nvsp) << c.describe();
    EXPECT_EQ(c.nvsd, r.nvsd) << c.describe();
  }
}

TEST(ParallelConfig, PaperFig1OptimumIsValid) {
  EXPECT_EQ(base().invalid_reason(mdl(), sys(), 4096), std::nullopt);
}

TEST(ParallelConfig, LocalMicrobatch) {
  EXPECT_EQ(base().local_microbatch(4096), 1);
  ParallelConfig c = base();
  c.microbatches = 64;
  EXPECT_EQ(c.local_microbatch(4096), 2);
}

TEST(ParallelConfig, RejectsN2In1D) {
  ParallelConfig c = base();
  c.n2 = 2;
  c.nd = 16;
  EXPECT_NE(c.invalid_reason(mdl(), sys(), 4096), std::nullopt);
}

TEST(ParallelConfig, RejectsTooManyGpus) {
  ParallelConfig c = base();
  c.nd = 64;  // 8*64*64 = 32768 > 16384
  c.microbatches = 64;
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096),
            "configuration exceeds available GPUs");
}

TEST(ParallelConfig, RejectsDepthMismatch) {
  ParallelConfig c = base();
  c.np = 96;  // 128 % 96 != 0
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096), "np must divide model depth");
}

TEST(ParallelConfig, RejectsBatchMismatch) {
  ParallelConfig c = base();
  c.nd = 3;
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096), "nd must divide global batch");
}

TEST(ParallelConfig, RejectsMicrobatchMismatch) {
  ParallelConfig c = base();
  c.microbatches = 96;  // (4096/32) = 128 not divisible by 96
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096), "m must divide the local batch");
}

TEST(ParallelConfig, RejectsHeadMismatch) {
  ParallelConfig c = base();
  c.n1 = 64;  // 160 heads % 64 != 0
  c.nd = 4;
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096), "n1 must divide heads");
}

TEST(ParallelConfig, RejectsSequenceMismatch) {
  model::TransformerConfig m = mdl();
  ParallelConfig c;
  c.strategy = TpStrategy::TP2D;
  c.n1 = 2;
  c.n2 = 2048;  // n1*n2 = 4096 > l = 2048
  c.nvs1 = 1;
  EXPECT_EQ(*c.invalid_reason(m, sys(), 4096), "n1*n2 must divide seq_len");
}

TEST(ParallelConfig, SummaRequiresDivisiblePanels) {
  ParallelConfig c;
  c.strategy = TpStrategy::Summa2D;
  c.n1 = 4;
  c.n2 = 4;
  c.nb = 3;  // 25600 % 3 != 0
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096),
            "nb must divide the contraction dim");
}

TEST(ParallelConfig, NbRejectedOutsideSumma) {
  ParallelConfig c = base();
  c.nb = 4;
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096),
            "nb is only meaningful for SUMMA");
}

TEST(ParallelConfig, PlacementMustDivideGroup) {
  ParallelConfig c = base();
  c.nvs1 = 3;
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096),
            "each nvs_i must divide its group size");
}

TEST(ParallelConfig, PlacementBoundedByDomain) {
  ParallelConfig c = base();
  c.nvs1 = 8;
  c.nvsd = 2;  // product 16 > domain 8
  EXPECT_EQ(*c.invalid_reason(mdl(), sys(), 4096),
            "placement exceeds the NVS domain");
}

TEST(ParallelConfig, Describe) {
  const std::string s = base().describe();
  EXPECT_NE(s.find("1D TP"), std::string::npos);
  EXPECT_NE(s.find("PP=64"), std::string::npos);
  EXPECT_NE(s.find("DP=32"), std::string::npos);
}

TEST(ParallelConfig, TotalsAndTp) {
  ParallelConfig c = base();
  EXPECT_EQ(c.total_gpus(), 8 * 64 * 32);
  EXPECT_EQ(c.tp(), 8);
  EXPECT_EQ(c.placement_product(), 8);
}

}  // namespace
}  // namespace tfpe::parallel
