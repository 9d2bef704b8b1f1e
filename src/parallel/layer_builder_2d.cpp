// 2D tensor parallelism (paper Table II): n1 partitions heads/hidden as in
// 1D TP, the orthogonal n2 group additionally partitions the sequence
// (context parallelism). AllGathers of K and V across n2 rebuild the full
// keys/values per head group; every collective volume now scales with one
// grid dimension, and weights are replicated (shared) across n2 — the
// paper's noted memory cost of plain 2D TP.

#include <algorithm>

#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/moe_mlp.hpp"

namespace tfpe::parallel {

using ops::add_conjugate_comm;
using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;

LayerCost build_layer_2d(const model::TransformerConfig& mdl,
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
  const double n1 = static_cast<double>(cfg.n1);
  const double n2 = static_cast<double>(cfg.n2);

  const double l2 = l / n2;           // sequence shard seen by matmuls
  const double l12 = l / (n1 * n2);   // sequence shard in the LN regions
  const Bytes vol_ag = Bytes(kBytesPerElement * B * l2 * e);  // b*(l/n2)*e
  // K/V gather across n2: the full sequence for dense attention, only the
  // window halo for windowed attention (linear attention reduces an
  // (e_h x e_h) state instead — see below).
  const double kv_gather_len =
      mdl.attention == model::AttentionKind::kWindowed
          ? std::min(l, l2 + static_cast<double>(mdl.window))
          : l;
  const Bytes vol_kv = Bytes(kBytesPerElement * B * kv_gather_len * ekv / n1);

  LayerCost lc;
  auto& v = lc.ops;
  v.reserve(mdl.is_moe() ? 16 : 12);  // the MoE MLP: 7 ops for the dense 3

  // --- Self-attention ---
  {
    auto& ln = v.emplace_back(ops::layernorm("ln1", B * l12 * e));
    ln.detail = "X~:(b,l/n2,e) <- AG(n1) <- X:(b,l/n1n2,e)";
    ln.out_elems = B * l2 * e;  // AllGather over n1 restores the l/n2 shard
    add_conjugate_comm(ln, Collective::AllGather, CommGroup::TP1, vol_ag);
  }
  {
    auto& qkv = v.emplace_back(
        ops::matmul("qkv_proj", B * l2, (e + 2.0 * ekv) / n1, e));
    qkv.detail = "Q:(b,h/n1,l/n2,eh) = X~:(b,l/n2,e) x WQKV:(e,(e+2ekv)/n1)";
  }
  {
    // K and V are AllGathered across n2 so each GPU attends over the full
    // sequence (or the window halo); queries stay sharded at l/n2. Linear
    // attention AllReduces the per-head (e_h x e_h) state instead.
    auto& att = v.emplace_back(
        ops::fused_attention("attention", B, h / n1, l2, lkv, eh,
                             B * l2 * (e + 2.0 * ekv) / n1, hkv / n1));
    att.detail = "A:(b,h/n1,l/n2,lkv); K,V <- AG(n2)";
    att.in_elems = B * l2 * (e + 2.0 * ekv) / n1;  // pre-gather Q/K/V shards
    if (mdl.attention == model::AttentionKind::kLinear) {
      add_conjugate_comm(att, Collective::AllReduce, CommGroup::TP2,
                         Bytes(kBytesPerElement * B * (hkv / n1) * eh * eh));
    } else if (cfg.ring_attention) {
      // Ring attention: the K/V shards circulate in n2 - 1 point-to-point
      // steps, each overlapped with the attention on the resident block
      // (modeled with the panel prologue/overlap machinery).
      att.detail = "A:(b,h/n1,l/n2,lkv); K,V ring over n2";
      att.summa_panels = cfg.n2;
      add_conjugate_comm(att, Collective::PointToPoint, CommGroup::TP2,
                         vol_kv * (2.0 * (n2 - 1.0) / n2));
    } else {
      add_conjugate_comm(att, Collective::AllGather, CommGroup::TP2, vol_kv);
      add_conjugate_comm(att, Collective::AllGather, CommGroup::TP2, vol_kv);
    }
  }
  {
    auto& proj = v.emplace_back(ops::matmul("out_proj", B * l2, e, e / n1));
    proj.detail = "Y:(b,l/n1n2,e) <- RS(n1) <- S x Wp:(e/n1,e)";
    proj.out_elems = B * l12 * e;  // ReduceScatter back to l/(n1 n2) shards
    add_conjugate_comm(proj, Collective::ReduceScatter, CommGroup::TP1, vol_ag);
  }
  v.push_back(ops::dropout("attn_dropout", B * l12 * e));
  v.push_back(ops::residual_add("attn_residual", B * l12 * e));

  // --- MLP ---
  {
    auto& ln = v.emplace_back(ops::layernorm("ln2", B * l12 * e));
    ln.detail = "Y~:(b,l/n2,e) <- AG(n1) <- Y:(b,l/n1n2,e)";
    ln.out_elems = B * l2 * e;
    add_conjugate_comm(ln, Collective::AllGather, CommGroup::TP1, vol_ag);
  }
  double mlp_weight_params;
  if (mdl.is_moe()) {
    // Owned tokens for the AllToAll: the (l/(n1 n2)) shard.
    mlp_weight_params = append_moe_mlp(v, mdl, cfg, B * l2, B * l12);
  } else {
    {
      auto& mlp1 = v.emplace_back(ops::matmul("mlp_fc1", B * l2, f / n1, e));
      mlp1.detail = "Z:(b,l/n2,f/n1) = Y~ x W1:(e,f/n1)";
    }
    v.push_back(ops::gelu("gelu", B * l2 * f / n1));
    {
      auto& mlp2 = v.emplace_back(ops::matmul("mlp_fc2", B * l2, e, f / n1));
      mlp2.detail = "X:(b,l/n1n2,e) <- RS(n1) <- Z x W2:(f/n1,e)";
      mlp2.out_elems = B * l12 * e;
      add_conjugate_comm(mlp2, Collective::ReduceScatter, CommGroup::TP1,
                         vol_ag);
    }
    mlp_weight_params = (2.0 * e * f + f + e) / n1;
  }
  v.push_back(ops::dropout("mlp_dropout", B * l12 * e));
  v.push_back(ops::residual_add("mlp_residual", B * l12 * e));

  // Weights are sharded over n1 only and SHARED across the n2 group; the
  // weight-gradient reduction therefore spans nd x n2.
  lc.weight_params = (2.0 * e * e + 2.0 * e * ekv) / n1 +
                     (2.0 * e + 2.0 * ekv) / n1 + mlp_weight_params + 4.0 * e;
  lc.dp_group_includes_tp2 = true;
  lc.pp_boundary_bytes = Bytes(kBytesPerElement * B * l * e / (n1 * n2));
  return lc;
}

}  // namespace tfpe::parallel
