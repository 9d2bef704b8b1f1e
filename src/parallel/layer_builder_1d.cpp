// 1D tensor parallelism (paper Table I, Megatron-style with sequence-parallel
// LayerNorm/dropout regions).
//
// The nt = n1 GPUs partition weight matrices column/row-wise and the sequence
// dimension in the LN/dropout regions. AllGather re-materializes the full
// (b, l, e) activations before the weight multiplies — the replicated
// X~ / Y~ tensors are the memory pressure the paper calls out — and
// ReduceScatter returns partial sums to the sequence-parallel layout.
// Communication volume b*l*e is independent of nt.

#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/moe_mlp.hpp"

namespace tfpe::parallel {

using ops::add_conjugate_comm;
using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;

LayerCost build_layer_1d(const model::TransformerConfig& mdl,
                         const ParallelConfig& cfg,
                         std::int64_t local_microbatch) {
  const double B = static_cast<double>(local_microbatch);
  const double l = static_cast<double>(mdl.seq_len);
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double h = static_cast<double>(mdl.heads);
  const double eh = static_cast<double>(mdl.head_dim());
  const double ekv = static_cast<double>(mdl.kv_embed());
  const double hkv = static_cast<double>(mdl.kv_heads_or_default());
  const double lkv = static_cast<double>(mdl.attended_len());
  const double nt = static_cast<double>(cfg.n1);

  const double ble = B * l * e;           // full activation elements
  const double seq_local = B * (l / nt);  // sequence-parallel token count

  LayerCost lc;
  auto& v = lc.ops;
  v.reserve(mdl.is_moe() ? 16 : 12);  // the MoE MLP: 7 ops for the dense 3

  // --- Self-attention ---
  {
    auto& ln = v.emplace_back(ops::layernorm("ln1", seq_local * e));
    ln.detail = "X~:(b,l,e) <- AG <- X:(b,l/nt,e)";
    ln.out_elems = ble;  // AllGather re-materializes the full activations
    add_conjugate_comm(ln, Collective::AllGather, CommGroup::TP1,
                       Bytes(kBytesPerElement * ble));
  }
  {
    // Q, K, V projections as one (b l, e) x (e, (e + 2 e_kv)/nt) multiply
    // (e_kv < e under grouped-query attention). The gathered X~ is stored
    // (replicated across nt) for backward.
    auto& qkv = v.emplace_back(
        ops::matmul("qkv_proj", B * l, (e + 2.0 * ekv) / nt, e));
    qkv.detail = "Q:(b,h/nt,l,eh) = X~:(b,l,e) x WQKV:(e,(e+2ekv)/nt)";
  }
  {
    // Fused FlashAttention Logit/Attend over h/nt local heads; Q, K, V
    // shards are stored, the l x l map is recomputed. lkv reflects the
    // attention kind (full l, window w, or e_h for linear attention).
    auto& att = v.emplace_back(
        ops::fused_attention("attention", B, h / nt, l, lkv, eh,
                             B * l * (e + 2.0 * ekv) / nt, hkv / nt));
    att.detail = "A=SM(QK^T), S=AV : (b,h/nt,l,lkv)";
    att.in_elems = B * l * (e + 2.0 * ekv) / nt;  // local Q/K/V shards
  }
  {
    auto& proj = v.emplace_back(ops::matmul("out_proj", B * l, e, e / nt));
    proj.detail = "Y:(b,l/nt,e) <- RS <- S:(b,h/nt,l,eh) x Wp:(e/nt,e)";
    proj.out_elems = seq_local * e;  // ReduceScatter back to sequence shards
    add_conjugate_comm(proj, Collective::ReduceScatter, CommGroup::TP1,
                       Bytes(kBytesPerElement * ble));
  }
  v.push_back(ops::dropout("attn_dropout", seq_local * e));
  v.push_back(ops::residual_add("attn_residual", seq_local * e));

  // --- MLP ---
  {
    auto& ln = v.emplace_back(ops::layernorm("ln2", seq_local * e));
    ln.detail = "Y~:(b,l,e) <- AG <- Y:(b,l/nt,e)";
    ln.out_elems = ble;
    add_conjugate_comm(ln, Collective::AllGather, CommGroup::TP1,
                       Bytes(kBytesPerElement * ble));
  }
  double mlp_weight_params;
  if (mdl.is_moe()) {
    // Owned tokens for the AllToAll: the sequence-parallel shard B*l/nt.
    mlp_weight_params = append_moe_mlp(v, mdl, cfg, B * l, seq_local);
  } else {
    {
      auto& mlp1 = v.emplace_back(ops::matmul("mlp_fc1", B * l, f / nt, e));
      mlp1.detail = "Z:(b,l,f/nt) = Y~:(b,l,e) x W1:(e,f/nt)";
    }
    v.push_back(ops::gelu("gelu", B * l * f / nt));
    {
      auto& mlp2 = v.emplace_back(ops::matmul("mlp_fc2", B * l, e, f / nt));
      mlp2.detail = "X:(b,l/nt,e) <- RS <- Z x W2:(f/nt,e)";
      mlp2.out_elems = seq_local * e;
      add_conjugate_comm(mlp2, Collective::ReduceScatter, CommGroup::TP1,
                         Bytes(kBytesPerElement * ble));
    }
    mlp_weight_params = (2.0 * e * f + f + e) / nt;
  }
  v.push_back(ops::dropout("mlp_dropout", seq_local * e));
  v.push_back(ops::residual_add("mlp_residual", seq_local * e));

  // Weight shards: WQ/Wp (e x e) + WK/WV (e x e_kv) over nt plus the MLP
  // (dense shard or local experts), biases over nt, LayerNorm parameters
  // replicated.
  lc.weight_params = (2.0 * e * e + 2.0 * e * ekv) / nt +
                     (2.0 * e + 2.0 * ekv) / nt + mlp_weight_params + 4.0 * e;
  lc.pp_boundary_bytes = Bytes(kBytesPerElement * ble / nt);
  return lc;
}

}  // namespace tfpe::parallel
