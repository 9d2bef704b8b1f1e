#include "ops/op_factory.hpp"

namespace tfpe::ops {

namespace {

Collective conjugate(Collective c) {
  switch (c) {
    case Collective::AllGather: return Collective::ReduceScatter;
    case Collective::ReduceScatter: return Collective::AllGather;
    case Collective::Broadcast: return Collective::Reduce;
    case Collective::Reduce: return Collective::Broadcast;
    default: return c;
  }
}

}  // namespace

void add_conjugate_comm(Op& op, Collective coll, CommGroup group, Bytes bytes) {
  op.fwd_comm.push_back({coll, group, bytes});
  op.bwd_comm.push_back({conjugate(coll), group, bytes});
}

Op matmul(Label name, double m, double n, double k, double batch,
          bool store_a, bool store_b) {
  Op op;
  op.name = name.view();
  op.unit = ComputeUnit::TensorCore;
  op.fwd_flops = Flops(batch * (2.0 * k - 1.0) * m * n);
  op.fwd_bytes = Bytes(batch * kBytesPerElement * (m * k + k * n + m * n));
  // dA = dC B^T : (2n-1) m k FLOPs; dB = A^T dC : (2m-1) k n FLOPs.
  op.bwd_flops =
      Flops(batch * ((2.0 * n - 1.0) * m * k + (2.0 * m - 1.0) * k * n));
  op.bwd_bytes = 2.0 * op.fwd_bytes;
  op.fwd_gemm_outputs = batch * m * n;
  op.bwd_gemm_outputs = batch * (m * k + k * n);
  op.stored_bytes = Bytes(batch * kBytesPerElement *
                          ((store_a ? m * k : 0.0) + (store_b ? k * n : 0.0)));
  op.in_elems = batch * m * k;
  op.out_elems = batch * m * n;
  return op;
}

Op fused_attention(Label name, double batch, double heads, double lq,
                   double lkv, double eh, double stored_elems,
                   double kv_heads) {
  Op op;
  op.name = name.view();
  op.unit = ComputeUnit::TensorCore;
  const double bh = batch * heads;
  const double bh_kv = batch * (kv_heads > 0 ? kv_heads : heads);
  // Logits (lq x lkv x eh) + Attend (lq x eh x lkv) matmuls plus the fused
  // softmax (~5 FLOPs per logit, executed inside the kernel). Every query
  // head attends, so GQA does not change the FLOPs — only the K/V traffic.
  const double mm = bh * (2.0 * eh - 1.0) * lq * lkv * 2.0;
  const double sm = bh * 5.0 * lq * lkv;
  op.fwd_flops = Flops(mm + sm);
  // IO-aware fusion: traffic is Q + K + V + output only (FLASHATTENTION).
  op.fwd_bytes = Bytes(kBytesPerElement *
                       (bh * 2.0 * lq * eh + bh_kv * 2.0 * lkv * eh));
  // Backward recomputes the forward attention then runs the gradient
  // matmuls: ~2.5x the forward FLOPs (Dao et al. 2022).
  op.bwd_flops = 2.5 * op.fwd_flops;
  op.bwd_bytes = 2.0 * op.fwd_bytes;
  // Stored: caller-provided tensors, the attention output (the FlashAttention
  // backward needs Q, K, V and O), and per-row softmax statistics.
  op.stored_bytes = Bytes(kBytesPerElement * (stored_elems + bh * lq * eh) +
                          4.0 * bh * lq);
  // Dense-attention default: Q plus full K/V; builders override `in_elems`
  // when K/V arrive sharded (2D gather/ring) or the kind is windowed/linear.
  op.in_elems = bh * lq * eh + bh_kv * 2.0 * lkv * eh;
  op.out_elems = bh * lq * eh;
  return op;
}

Op vector_op(Label name, double elements, double flops_per_element,
             double stored_elems, double stored_mask_elems) {
  Op op;
  op.name = name.view();
  op.unit = ComputeUnit::Vector;
  op.fwd_flops = Flops(elements * flops_per_element);
  op.fwd_bytes = Bytes(2.0 * kBytesPerElement * elements);  // read + write
  op.bwd_flops = op.fwd_flops;
  // Backward reads the incoming gradient and the stored input, writes the
  // outgoing gradient.
  op.bwd_bytes = Bytes(3.0 * kBytesPerElement * elements);
  op.stored_bytes = Bytes(kBytesPerElement * stored_elems +
                          kBytesPerMaskElement * stored_mask_elems);
  op.in_elems = elements;
  op.out_elems = elements;
  return op;
}

Op layernorm(Label name, double elements) {
  // Mean, variance, normalize, scale + shift: ~5 FLOPs/element.
  return vector_op(name, elements, 5.0, elements);
}

Op gelu(Label name, double elements) {
  // tanh-approximation GeLU: ~8 FLOPs/element.
  return vector_op(name, elements, 8.0, elements);
}

Op dropout(Label name, double elements) {
  // Mask multiply; stores the 1-byte mask, not the activations.
  return vector_op(name, elements, 2.0, 0.0, elements);
}

Op residual_add(Label name, double elements) {
  // x + y; nothing stored (gradient passes through unchanged).
  return vector_op(name, elements, 1.0, 0.0);
}

Op summa_matmul(Label name, double M, double N, double K, std::int64_t n1,
                std::int64_t n2, std::int64_t nb, bool store_a) {
  Op op;
  op.name = name.view();
  op.unit = ComputeUnit::TensorCore;
  const double p = static_cast<double>(n1) * static_cast<double>(n2);
  op.fwd_flops = Flops((2.0 * K - 1.0) * M * N / p);
  // The gathered row/column blocks stream through HBM in addition to the
  // local C tile.
  op.fwd_bytes =
      Bytes(kBytesPerElement *
            (M * K / static_cast<double>(n2) +
             K * N / static_cast<double>(n1) + M * N / p));
  op.bwd_flops = 2.0 * op.fwd_flops;
  op.bwd_bytes = 2.0 * op.fwd_bytes;
  // The serial count split evenly over the p GPUs: one (M x N)/p output
  // forward, two backward (the same 2 x multiply-adds as dgrad + wgrad).
  op.fwd_gemm_outputs = M * N / p;
  op.bwd_gemm_outputs = 2.0 * M * N / p;
  op.stored_bytes = Bytes(store_a ? kBytesPerElement * M * K / p : 0.0);
  op.in_elems = M * K / p;
  op.out_elems = M * N / p;

  const Bytes a_block_bytes =
      Bytes(kBytesPerElement * M * K / static_cast<double>(n2));
  const Bytes b_block_bytes =
      Bytes(kBytesPerElement * K * N / static_cast<double>(n1));
  // Forward: broadcast A panels along process rows (TP1 group of n1) and B
  // panels along process columns (TP2 group of n2).
  op.fwd_comm.push_back({Collective::Broadcast, CommGroup::TP1, a_block_bytes});
  op.fwd_comm.push_back({Collective::Broadcast, CommGroup::TP2, b_block_bytes});
  // Backward: dA = dC B^T and dB = A^T dC are SUMMA multiplies with a
  // Broadcast and a Reduce each (same block volumes).
  op.bwd_comm.push_back({Collective::Broadcast, CommGroup::TP2, b_block_bytes});
  op.bwd_comm.push_back({Collective::Reduce, CommGroup::TP1, a_block_bytes});
  op.bwd_comm.push_back({Collective::Broadcast, CommGroup::TP1, a_block_bytes});
  op.bwd_comm.push_back({Collective::Reduce, CommGroup::TP2, b_block_bytes});

  op.summa_panels = nb;
  op.summa_k = K;
  return op;
}

void drop_backward(Op& op) {
  op.bwd_flops = Flops(0);
  op.bwd_gemm_outputs = 0;
  op.bwd_bytes = Bytes(0);
  op.bwd_comm.clear();
  op.stored_bytes = Bytes(0);
}

Op forward_only(Op op) {
  drop_backward(op);
  return op;
}

Op decode_attention(Label name, double batch, double heads,
                    double kv_len, double eh, double kv_heads) {
  // Single-token queries over the cache: the training counting with lq = 1
  // (GQA K/V shrink included), then the backward dimension stripped.
  return forward_only(fused_attention(name, batch, heads,
                                      /*lq=*/1.0, /*lkv=*/kv_len, eh,
                                      /*stored_elems=*/0.0, kv_heads));
}

}  // namespace tfpe::ops
