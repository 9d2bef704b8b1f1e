// Decode-phase block (core/workload.hpp, ExecutionPhase::kDecode): `tokens`
// single-token queries — one per resident request — against a `kv_len`-token
// K/V cache, under Megatron-style 1D tensor parallelism.
//
// Every matmul is GEMV-shaped (m = tokens, contraction over the weight
// matrix), so the roofline lands memory-bound: the per-step traffic is the
// stage's weight matrices plus the K/V cache read, which is exactly the
// decode lower bound core/lower_bounds.hpp prices. Differences from the
// training builder:
//   * no sequence parallelism (each query is one token) — the TP seam is a
//     plain AllReduce after out_proj / mlp_fc2 instead of the AG/RS pair;
//   * no dropout, no backward, no stored activations (ops::drop_backward);
//   * a kv_append op accounts the cache write of the step's new K/V.
// `tokens` is a double: the serving pipeline divides the resident batch
// across np decode groups, and fractional group sizes keep the analytic
// model smooth.

#include <stdexcept>

#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"

namespace tfpe::parallel {

using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;

LayerCost build_decode_layer(const model::TransformerConfig& mdl,
                             std::int64_t tp, double tokens, double kv_len) {
  if (mdl.is_moe()) {
    throw std::invalid_argument(
        "build_decode_layer models dense blocks only (MoE serving is "
        "reported infeasible by the estimator)");
  }
  const double R = tokens;
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double h = static_cast<double>(mdl.heads);
  const double eh = static_cast<double>(mdl.head_dim());
  const double ekv = static_cast<double>(mdl.kv_embed());
  const double hkv = static_cast<double>(mdl.kv_heads_or_default());
  const double nt = static_cast<double>(tp);
  // K/V heads per GPU: sharded while tp <= kv_heads, replicated beyond
  // (grouped-query attention cannot split a K/V head across ranks).
  const double hkv_local = hkv / nt > 1.0 ? hkv / nt : 1.0;
  // Cache tokens one step attends to, per the attention kind.
  double lkv = kv_len;
  switch (mdl.attention) {
    case model::AttentionKind::kFull: break;
    case model::AttentionKind::kWindowed:
      if (static_cast<double>(mdl.window) < lkv)
        lkv = static_cast<double>(mdl.window);
      break;
    case model::AttentionKind::kLinear: lkv = eh; break;
  }

  const Bytes re_bytes = Bytes(kBytesPerElement * R * e);

  LayerCost lc;
  auto& v = lc.ops;
  v.reserve(11);
  // Appends a training op with its backward dimension stripped in place.
  const auto forward = [&v](const ops::Op& op) -> ops::Op& {
    ops::Op& placed = v.emplace_back(op);
    ops::drop_backward(placed);
    return placed;
  };

  // --- Self-attention ---
  {
    auto& ln = forward(ops::layernorm("ln1", R * e));
    ln.detail = "X:(R,e) replicated across nt";
  }
  {
    auto& qkv = forward(ops::matmul("qkv_proj", R, (e + 2.0 * ekv) / nt, e,
                                    1.0, /*store_a=*/false));
    qkv.detail = "q:(R,h/nt,eh) = X:(R,e) x WQKV:(e,(e+2ekv)/nt)";
  }
  {
    // Cache write of the step's new K/V rows (pure traffic, no FLOPs).
    auto& app = forward(
        ops::vector_op("kv_append", R * 2.0 * hkv_local * eh, 0.0, 0.0));
    app.detail = "KV[:, kv_len] = k,v : (R,2,hkv/nt,eh)";
    app.in_elems = 0;  // sourced from qkv_proj, not the activation stream
    app.out_elems = 0;
  }
  {
    auto& att = v.emplace_back(
        ops::decode_attention("attention", R, h / nt, lkv, eh, hkv_local));
    att.detail = "A=SM(qK^T), s=AV : (R,h/nt,1,kv_len)";
    att.in_elems = 0;  // reads the cache, not just the predecessor
  }
  {
    auto& proj = forward(
        ops::matmul("out_proj", R, e, e / nt, 1.0, /*store_a=*/false));
    proj.detail = "Y:(R,e) <- AR <- s:(R,h/nt,eh) x Wp:(e/nt,e)";
    proj.fwd_comm.push_back({Collective::AllReduce, CommGroup::TP1, re_bytes});
  }
  forward(ops::residual_add("attn_residual", R * e));

  // --- MLP ---
  {
    auto& ln = forward(ops::layernorm("ln2", R * e));
    ln.detail = "Y:(R,e) replicated across nt";
  }
  {
    auto& mlp1 = forward(
        ops::matmul("mlp_fc1", R, f / nt, e, 1.0, /*store_a=*/false));
    mlp1.detail = "Z:(R,f/nt) = Y:(R,e) x W1:(e,f/nt)";
  }
  forward(ops::gelu("gelu", R * f / nt));
  {
    auto& mlp2 = forward(
        ops::matmul("mlp_fc2", R, e, f / nt, 1.0, /*store_a=*/false));
    mlp2.detail = "X:(R,e) <- AR <- Z x W2:(f/nt,e)";
    mlp2.fwd_comm.push_back({Collective::AllReduce, CommGroup::TP1, re_bytes});
  }
  forward(ops::residual_add("mlp_residual", R * e));

  // Same resident weights as the 1D training builder's dense block:
  // attention + MLP matmuls and biases over nt, LayerNorm replicated.
  lc.weight_params = (2.0 * e * e + 2.0 * e * ekv) / nt +
                     (2.0 * e + 2.0 * ekv) / nt + (2.0 * e * f + f + e) / nt +
                     4.0 * e;
  lc.pp_boundary_bytes = re_bytes;
  return lc;
}

}  // namespace tfpe::parallel
