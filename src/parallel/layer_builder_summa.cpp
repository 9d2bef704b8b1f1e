// 2D tensor parallelism with SUMMA matrix multiplies (paper Table A2,
// Appendix A).
//
// Every activation-weight multiply (QKV, MLP fc1/fc2) is a SUMMA-distributed
// multiply on the n1 x n2 grid: both activations and weights are fully
// sharded (no redundant weight memory), at the cost of broadcasting panel
// blocks of both operands. The attention Logit/Attend keeps the 2D-TP
// AllGather of K/V; the output projection keeps its ReduceScatter (as in
// Table A2). The nb panel count trades prologue time against per-panel
// matmul efficiency and is part of the searched configuration.

#include <algorithm>

#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"

namespace tfpe::parallel {

using ops::add_conjugate_comm;
using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;

LayerCost build_layer_summa(const model::TransformerConfig& mdl,
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

  const double l2 = l / n2;
  const Bytes vol_ln = Bytes(kBytesPerElement * B * l2 * e);  // b*(l/n2)*e
  const double kv_gather_len =
      mdl.attention == model::AttentionKind::kWindowed
          ? std::min(l, l2 + static_cast<double>(mdl.window))
          : l;
  const Bytes vol_kv = Bytes(kBytesPerElement * B * kv_gather_len * ekv / n1);

  LayerCost lc;
  auto& v = lc.ops;
  v.reserve(12);

  // --- Self-attention ---
  {
    // X is sharded (b, l/n2, e/n1); the LayerNorm statistics need the full
    // embedding dimension, hence an AllReduce across n1 (Table A2).
    auto& ln = v.emplace_back(ops::layernorm("ln1", B * l2 * (e / n1)));
    ln.detail = "X~:(b,l/n2,e/n1); stats <- AR(n1)";
    add_conjugate_comm(ln, Collective::AllReduce, CommGroup::TP1, vol_ln);
  }
  {
    auto& qkv = v.emplace_back(ops::summa_matmul(
        "qkv_proj", B * l, e + 2.0 * ekv, e, cfg.n1, cfg.n2, cfg.nb));
    qkv.detail = "SUMMA: Q = X~:(b,l/n2,e/n1) x WQKV:(e/n2,(e+2ekv)/n1), V1";
  }
  {
    auto& att = v.emplace_back(
        ops::fused_attention("attention", B, h / n1, l2, lkv, eh,
                             B * l2 * (e + 2.0 * ekv) / n1, hkv / n1));
    att.detail = "A:(b,h/n1,l/n2,lkv); K,V <- AG(n2)";
    att.in_elems = B * l2 * (e + 2.0 * ekv) / n1;  // pre-gather Q/K/V shards
    if (mdl.attention == model::AttentionKind::kLinear) {
      add_conjugate_comm(att, Collective::AllReduce, CommGroup::TP2,
                         Bytes(kBytesPerElement * B * (hkv / n1) * eh * eh));
    } else if (cfg.ring_attention) {
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
    // Output projection stays a row-parallel multiply with ReduceScatter
    // (Table A2): Wp is sharded over n1 only.
    auto& proj = v.emplace_back(ops::matmul("out_proj", B * l2, e, e / n1));
    proj.detail = "Y:(b,l/n1n2,e) <- RS(n1) <- S x Wp:(e/n1,e)";
    proj.out_elems = B * l2 * e / n1;  // ReduceScatter back to (e/n1) shards
    add_conjugate_comm(proj, Collective::ReduceScatter, CommGroup::TP1, vol_ln);
  }
  v.push_back(ops::dropout("attn_dropout", B * l2 * e / n1));
  v.push_back(ops::residual_add("attn_residual", B * l2 * e / n1));

  // --- MLP ---
  {
    auto& ln = v.emplace_back(ops::layernorm("ln2", B * l2 * (e / n1)));
    ln.detail = "Y~:(b,l/n2,e/n1); stats <- AR(n1)";
    add_conjugate_comm(ln, Collective::AllReduce, CommGroup::TP1, vol_ln);
  }
  {
    auto& mlp1 = v.emplace_back(
        ops::summa_matmul("mlp_fc1", B * l, f, e, cfg.n1, cfg.n2, cfg.nb));
    mlp1.detail = "SUMMA: Z = Y~ x W1:(e/n2,f/n1), V2 = ble/n2 + ef/n1";
  }
  v.push_back(ops::gelu("gelu", B * l2 * f / n1));
  {
    // Table A2 writes V3 = ble/n2 + ef/n1; the general SUMMA volume for a
    // (b l x f)(f x e) multiply is blf/n2 + fe/n1 — we use the general form.
    auto& mlp2 = v.emplace_back(
        ops::summa_matmul("mlp_fc2", B * l, e, f, cfg.n1, cfg.n2, cfg.nb));
    mlp2.detail = "SUMMA: X = Z x W2:(f/n2,e/n1), V3";
  }
  v.push_back(ops::dropout("mlp_dropout", B * l2 * e / n1));
  v.push_back(ops::residual_add("mlp_residual", B * l2 * e / n1));

  // Fully sharded weights except Wp (n1 only, per Table A2); LN parameters
  // sharded over n1.
  lc.weight_params = (e * e + 2.0 * e * ekv + 2.0 * e * f) / (n1 * n2) +
                     e * e / n1 +
                     (2.0 * e + 2.0 * ekv + f + e) / (n1 * n2) + 4.0 * e / n1;
  lc.pp_boundary_bytes = Bytes(kBytesPerElement * B * l * e / (n1 * n2));
  return lc;
}

}  // namespace tfpe::parallel
