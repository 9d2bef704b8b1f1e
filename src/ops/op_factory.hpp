#pragma once
// Factories that perform the paper's S1 counting for each operation class:
// plain / batched matrix multiplies, SUMMA-distributed multiplies, fused
// FlashAttention Logit/Attend, and element-wise vector ops.
//
// Conventions:
//  * All counts are per GPU and per microbatch.
//  * FP16 storage: kBytesPerElement = 2 for activations and weights.
//  * CommRequest.bytes is the size of the FULL tensor entering the
//    collective (the paper's "Vol" column, in bytes); the collective model
//    applies the ring (g-1)/g factor.
//  * Backward matmul = two matmuls (dA = dC B^T, dB = A^T dC) so ~2x the
//    forward FLOPs and bytes; backward collectives are the conjugates of the
//    forward ones (AG <-> RS) with equal volume.

#include <cstdint>
#include <string_view>

#include "ops/op.hpp"

namespace tfpe::ops {

inline constexpr double kBytesPerElement = 2.0;  ///< FP16.
inline constexpr double kBytesPerMaskElement = 1.0;

/// An op name the factories store in Op::name. The constructor is
/// consteval, so only a constant string (in practice a literal, which
/// lives for the whole program) converts: a temporary std::string does not
/// compile, and no Op can be left viewing freed memory.
class Label {
 public:
  consteval Label(const char* text) : text_(text) {}
  constexpr std::string_view view() const { return text_; }

 private:
  std::string_view text_;
};

/// C[m x n] = A[m x k] B[k x n], `batch` independent instances.
/// λf = (2k-1)mn, λm = 2(mk + kn + mn) per instance.
/// If `store_a`, A is kept for backward (counts toward activation memory);
/// B is a weight matrix accounted in the weight-memory model unless
/// `store_b` is set (activation-activation multiplies).
Op matmul(Label name, double m, double n, double k, double batch = 1.0,
          bool store_a = true, bool store_b = false);

/// Fused FlashAttention Logit/Attend: softmax(Q K^T) V for `batch` samples
/// and `heads` local heads, query length lq, key/value length lkv, head dim
/// eh. Memory traffic touches only inputs/outputs (no l x l intermediate);
/// the backward pass recomputes the forward (2.5x forward FLOPs).
/// `stored_elems` is the caller-determined activation storage (e.g. the
/// pre-AllGather K/V shards in 2D TP). `kv_heads` (grouped-query attention)
/// shrinks the K/V traffic; 0 means kv_heads == heads.
Op fused_attention(Label name, double batch, double heads, double lq,
                   double lkv, double eh, double stored_elems,
                   double kv_heads = 0);

/// Element-wise vector op over `elements` values with `flops_per_element`.
/// `stored_elems` activation elements are retained for backward.
/// `stored_mask_elems` retains 1-byte mask elements (dropout).
Op vector_op(Label name, double elements, double flops_per_element,
             double stored_elems, double stored_mask_elems = 0.0);

// Canonical vector ops used by the transformer block.
Op layernorm(Label name, double elements);
Op gelu(Label name, double elements);
Op dropout(Label name, double elements);
Op residual_add(Label name, double elements);

/// SUMMA-distributed C[M x N] = A[M x K] B[K x N] on an n1 x n2 grid with
/// nb contraction panels (paper Appendix A, Table A2). Global (unpartitioned)
/// M, N, K. Per-GPU comm: A row-block broadcast over TP1 of M*K/n2 elements
/// and B column-block broadcast over TP2 of K*N/n1 elements.
Op summa_matmul(Label name, double M, double N, double K,
                std::int64_t n1, std::int64_t n2, std::int64_t nb,
                bool store_a = true);

/// Append a communication request to the op's forward list and its conjugate
/// (AG <-> RS, B <-> R, AR/P2P self-conjugate) to the backward list.
void add_conjugate_comm(Op& op, Collective coll, CommGroup group, Bytes bytes);

// -- Execution-phase specializations (core/workload.hpp). The factories
// above count a training op: forward + backward + stored activations. The
// inference phases reuse the same counting with the backward dimension
// removed at the op level, so every downstream consumer (signature
// compiler, roofline, lint) sees ordinary Ops.

/// Strip `op` for a forward-only phase: no backward FLOPs/bytes, no
/// backward collectives, and no stored activations (nothing is kept for a
/// pass that never runs).
void drop_backward(Op& op);

/// `op` re-emitted with drop_backward applied.
Op forward_only(Op op);

/// Decode-phase fused attention: `batch` single-token queries (one per
/// resident request), each attending over a `kv_len`-token K/V cache.
/// GEMV-shaped — fused_attention with lq = 1 — so the roofline lands
/// memory-bound: the dominant traffic is the K/V cache read of
/// 2 * kv_heads * kv_len * eh elements per request. Forward-only.
Op decode_attention(Label name, double batch, double heads,
                    double kv_len, double eh, double kv_heads = 0);

}  // namespace tfpe::ops
