// Unit tests for the S1 counting primitives: matmul, vector ops, fused
// attention, SUMMA multiplies and the forward/backward comm conjugation.

#include <gtest/gtest.h>

#include <stdexcept>

#include "ops/op_factory.hpp"

namespace tfpe::ops {
namespace {

TEST(Matmul, FlopAndByteCounts) {
  // C[4x6] = A[4x5] B[5x6]: lf = (2*5-1)*4*6 = 216,
  // lm = 2*(4*5 + 5*6 + 4*6) = 148 bytes.
  const Op op = matmul("mm", 4, 6, 5);
  EXPECT_DOUBLE_EQ(op.fwd_flops.value(), 216.0);
  EXPECT_DOUBLE_EQ(op.fwd_bytes.value(), 148.0);
  EXPECT_EQ(op.unit, ComputeUnit::TensorCore);
}

TEST(Matmul, BackwardIsTwoMatmuls) {
  const Op op = matmul("mm", 4, 6, 5);
  // dA = dC B^T: (2*6-1)*4*5 = 220; dB = A^T dC: (2*4-1)*5*6 = 210.
  EXPECT_DOUBLE_EQ(op.bwd_flops.value(), 430.0);
  EXPECT_DOUBLE_EQ(op.bwd_bytes.value(), 2.0 * op.fwd_bytes.value());
}

TEST(Matmul, BatchScalesEverything) {
  const Op one = matmul("mm", 8, 8, 8, 1.0);
  const Op four = matmul("mm", 8, 8, 8, 4.0);
  EXPECT_DOUBLE_EQ(four.fwd_flops.value(), 4.0 * one.fwd_flops.value());
  EXPECT_DOUBLE_EQ(four.fwd_bytes.value(), 4.0 * one.fwd_bytes.value());
  EXPECT_DOUBLE_EQ(four.stored_bytes.value(), 4.0 * one.stored_bytes.value());
}

TEST(Matmul, StorageFlags) {
  EXPECT_DOUBLE_EQ(matmul("mm", 4, 6, 5, 1, true, false).stored_bytes.value(),
                   2.0 * 4 * 5);
  EXPECT_DOUBLE_EQ(matmul("mm", 4, 6, 5, 1, true, true).stored_bytes.value(),
                   2.0 * (4 * 5 + 5 * 6));
  EXPECT_DOUBLE_EQ(
      matmul("mm", 4, 6, 5, 1, false, false).stored_bytes.value(), 0.0);
}

TEST(FusedAttention, IoAwareBytes) {
  // Only Q, K, V and the output stream through HBM; no l x l logits.
  const double B = 2, H = 4, L = 128, EH = 16;
  const Op op = fused_attention("att", B, H, L, L, EH, 0.0);
  EXPECT_DOUBLE_EQ(op.fwd_bytes.value(), 2.0 * B * H * (2 * L * EH + 2 * L * EH));
  // The logits would have been 2 * B*H*L*L = 65536 bytes; ensure they are
  // absent (IO is far smaller).
  EXPECT_LT(op.fwd_bytes.value(), 2.0 * B * H * L * L);
}

TEST(FusedAttention, RecomputeCostsExtraBackwardFlops) {
  const Op op = fused_attention("att", 1, 8, 128, 128, 32, 0.0);
  EXPECT_DOUBLE_EQ(op.bwd_flops.value(), 2.5 * op.fwd_flops.value());
}

TEST(FusedAttention, QuadraticInSequence) {
  const Op small = fused_attention("att", 1, 1, 128, 128, 32, 0.0);
  const Op big = fused_attention("att", 1, 1, 256, 256, 32, 0.0);
  EXPECT_NEAR(big.fwd_flops.value() / small.fwd_flops.value(), 4.0, 0.1);
}

TEST(VectorOps, LayerNormCounts) {
  const Op op = layernorm("ln", 1000);
  EXPECT_EQ(op.unit, ComputeUnit::Vector);
  EXPECT_DOUBLE_EQ(op.fwd_flops.value(), 5000.0);
  EXPECT_DOUBLE_EQ(op.fwd_bytes.value(), 4000.0);   // read + write FP16
  EXPECT_DOUBLE_EQ(op.stored_bytes.value(), 2000.0);  // input kept for backward
}

TEST(VectorOps, DropoutStoresOnlyMask) {
  const Op op = dropout("do", 1000);
  EXPECT_DOUBLE_EQ(op.stored_bytes.value(), 1000.0);  // 1 byte per element
}

TEST(VectorOps, ResidualStoresNothing) {
  EXPECT_DOUBLE_EQ(residual_add("res", 1000).stored_bytes.value(), 0.0);
}

TEST(ConjugateComm, AllGatherBecomesReduceScatter) {
  Op op = layernorm("ln", 10);
  add_conjugate_comm(op, Collective::AllGather, CommGroup::TP1, Bytes(123.0));
  ASSERT_EQ(op.fwd_comm.size(), 1u);
  ASSERT_EQ(op.bwd_comm.size(), 1u);
  EXPECT_EQ(op.fwd_comm[0].collective, Collective::AllGather);
  EXPECT_EQ(op.bwd_comm[0].collective, Collective::ReduceScatter);
  EXPECT_DOUBLE_EQ(op.bwd_comm[0].bytes.value(), 123.0);
}

TEST(ConjugateComm, AllReduceIsSelfConjugate) {
  Op op = layernorm("ln", 10);
  add_conjugate_comm(op, Collective::AllReduce, CommGroup::TP2, Bytes(5.0));
  EXPECT_EQ(op.bwd_comm[0].collective, Collective::AllReduce);
}

TEST(Summa, FlopsMatchShardedMatmul) {
  // SUMMA should perform the same per-GPU FLOPs as a perfectly sharded
  // multiply: (2K-1) M N / (n1 n2).
  const Op op = summa_matmul("s", 256, 512, 128, 4, 2, 1);
  EXPECT_DOUBLE_EQ(op.fwd_flops.value(), (2.0 * 128 - 1) * 256 * 512 / 8.0);
}

TEST(Summa, BlockBroadcastVolumes) {
  // V = M*K/n2 elements over TP1 plus K*N/n1 elements over TP2 (Table A2).
  const Op op = summa_matmul("s", 256, 512, 128, 4, 2, 1);
  ASSERT_EQ(op.fwd_comm.size(), 2u);
  EXPECT_EQ(op.fwd_comm[0].group, CommGroup::TP1);
  EXPECT_DOUBLE_EQ(op.fwd_comm[0].bytes.value(), 2.0 * 256 * 128 / 2);
  EXPECT_EQ(op.fwd_comm[1].group, CommGroup::TP2);
  EXPECT_DOUBLE_EQ(op.fwd_comm[1].bytes.value(), 2.0 * 128 * 512 / 4);
  EXPECT_EQ(op.fwd_comm[0].collective, Collective::Broadcast);
}

TEST(Summa, BackwardUsesBroadcastAndReduce) {
  const Op op = summa_matmul("s", 64, 64, 64, 2, 2, 4);
  ASSERT_EQ(op.bwd_comm.size(), 4u);
  int broadcasts = 0, reduces = 0;
  for (const auto& r : op.bwd_comm) {
    if (r.collective == Collective::Broadcast) ++broadcasts;
    if (r.collective == Collective::Reduce) ++reduces;
  }
  EXPECT_EQ(broadcasts, 2);
  EXPECT_EQ(reduces, 2);
  EXPECT_EQ(op.summa_panels, 4);
}

TEST(CommList, HoldsFourRequestsAndThrowsOnTheFifth) {
  // A SUMMA backward fills the list; a fifth collective on one pass throws
  // rather than being dropped, and the four already held stay intact.
  Op op = summa_matmul("s", 64, 64, 64, 2, 2, 4);
  ASSERT_EQ(op.bwd_comm.size(), CommList::kCapacity);
  const CommRequest fifth{Collective::AllReduce, CommGroup::DP, Bytes(1.0)};
  EXPECT_THROW(op.bwd_comm.push_back(fifth), std::logic_error);
  ASSERT_EQ(op.bwd_comm.size(), 4u);
  EXPECT_EQ(op.bwd_comm[3].collective, Collective::Reduce);
  EXPECT_EQ(op.bwd_comm[3].group, CommGroup::TP2);
  op.bwd_comm.clear();
  EXPECT_TRUE(op.bwd_comm.empty());
  EXPECT_EQ(op.bwd_comm.begin(), op.bwd_comm.end());
}

TEST(Summa, NoSharedWeightStorage) {
  // Fully sharded A tile only: M*K/(n1*n2) elements.
  const Op op = summa_matmul("s", 256, 512, 128, 4, 2, 1);
  EXPECT_DOUBLE_EQ(op.stored_bytes.value(), 2.0 * 256 * 128 / 8);
}

TEST(ToString, Coverage) {
  EXPECT_EQ(to_string(Collective::AllGather), "AG");
  EXPECT_EQ(to_string(Collective::ReduceScatter), "RS");
  EXPECT_EQ(to_string(Collective::AllReduce), "AR");
  EXPECT_EQ(to_string(Collective::Broadcast), "B");
  EXPECT_EQ(to_string(CommGroup::DP), "DP");
  EXPECT_EQ(to_string(ComputeUnit::TensorCore), "tensor");
}

}  // namespace
}  // namespace tfpe::ops
