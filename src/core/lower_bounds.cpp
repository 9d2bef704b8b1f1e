#include "core/lower_bounds.hpp"

#include <algorithm>

#include "comm/collective_algorithm.hpp"
#include "ops/op_factory.hpp"

namespace tfpe::core {

namespace {

/// Per-GPU FLOP floor of an (m x k)(k x n) matmul sharded across `tp`
/// GPUs, whichever dimensions the split uses (see header). A contraction
/// split cannot use more than k parts, so the subtracted term saturates at
/// min(tp, k) — the floor stays positive even when tp > k (e.g. the
/// head-dim contraction of attention at large tp).
double matmul_floor(double m, double n, double k, double tp) {
  return (2.0 * k - std::min(tp, k)) * m * n / tp;
}

/// Floor on the fwd + bwd FLOPs of one (bl x C) = (bl x K)(K x C)
/// projection sharded across tp GPUs. The backward runs dgrad
/// (contraction C) and wgrad (contraction bl) in ops::matmul, but SUMMA
/// prices its backward as exactly twice the forward-contraction form, so
/// the valid cross-builder backward floor is the min of the two
/// accountings. `wgrad_split` caps how many parts the wgrad's token
/// contraction is split into: min(tp, bl) for one microbatch (matmul_floor's
/// saturation), min(B * tp, bl) summed over the microbatches of a B-sample
/// local batch (the prefix floor's relaxation).
double projection_floor(double bl, double C, double K, double tp,
                        double wgrad_split) {
  const double fwd = matmul_floor(bl, C, K, tp);
  const double wgrad = (2.0 * bl - wgrad_split) * C * K / tp;
  const double bwd = std::min(2.0 * fwd, matmul_floor(bl, K, C, tp) + wgrad);
  return fwd + bwd;
}

/// Fused-attention fwd FLOPs per GPU: two (lq x eh x lkv) matmuls plus the
/// in-kernel softmax (5 FLOPs/logit), 4*eh + 3 per head-logit. Every
/// builder calls ops::fused_attention with the head dim whole (only heads,
/// queries and the batch are sharded), so the per-logit cost never shrinks
/// and the per-GPU share is at least the 1/tp slice. Backward is priced at
/// exactly 2.5x forward (FlashAttention recompute) in the factory.
constexpr double kAttentionFwdBwd = 3.5;

/// HBM bytes per element of the mandatory vector ops: every builder runs
/// 2x LN, 2x dropout and 2x residual on the (bl x e) stream plus GeLU on
/// (bl x f) for the dense MLP, each reading+writing 2 elements forward and
/// 3 backward at FP16. The roofline charges at least the HBM side.
constexpr double kVectorBytesPerElement = 5.0 * ops::kBytesPerElement;

/// Relative slack on the TP communication floor. The volumes are summed
/// in a different order than the builders' per-request byte counts, so the
/// floor can land a few ulps above the kernel's walk of the same requests.
constexpr double kTpCommFloorSlack = 1e-9;

/// Relative slack on the prefix floor: it sums the same terms as
/// search_bounds in other groupings (one B-sample batch against m
/// microbatches of B/m), so a floor that is mathematically <= a child's
/// bound could otherwise round a few ulps above it.
constexpr double kPrefixFloorSlack = 1e-9;

/// Relative slack on the MoE expert MLP terms: they restate the FLOP and
/// byte counts of parallel/moe_mlp.cpp's ops in another grouping, so the
/// sum could otherwise land a few ulps above the kernel's own.
constexpr double kMoeFloorSlack = 1e-9;

/// Per-GPU FLOP floor of one layer's fwd + bwd over `bl` tokens (see the
/// header): the projections, the fused attention and the dense MLP (the
/// MoE expert MLP is moe_mlp_time's).
double layer_flops(const model::TransformerConfig& mdl, double bl, double tp,
                   double wgrad_split) {
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double eh = static_cast<double>(mdl.head_dim());
  const double ekv = static_cast<double>(mdl.kv_embed());
  // Attention projections: Q and output (e x e), K and V (e x kv_embed),
  // each with its dgrad/wgrad backward (see projection_floor).
  double flops = 2.0 * projection_floor(bl, e, e, tp, wgrad_split) +
                 2.0 * projection_floor(bl, ekv, e, tp, wgrad_split);
  // Logit + Attend: the fused attention kernel, head dim never sharded.
  // The attended length covers full/windowed/linear attention uniformly,
  // and ring attention moves the same FLOPs.
  const double lkv = static_cast<double>(mdl.attended_len());
  flops += kAttentionFwdBwd * static_cast<double>(mdl.heads) * bl * lkv *
           (4.0 * eh + 3.0) / tp;
  // Dense MLP: (bl x e)(e x f) and (bl x f)(f x e).
  if (!mdl.is_moe()) {
    flops += projection_floor(bl, f, e, tp, wgrad_split) +
             projection_floor(bl, e, f, tp, wgrad_split);
  }
  return flops;
}

/// HBM time of the mandatory vector ops on `bl` tokens: per-GPU element
/// counts are bl*e/tp (LN/dropout/residual x2 each) plus bl*f/tp (dense
/// GeLU) in every builder; the roofline charges at least the HBM side. The
/// MoE GeLU runs on the routed tokens and is moe_mlp_time's.
double layer_vector_time(const model::TransformerConfig& mdl,
                         const hw::SystemConfig& sys, double bl, double tp) {
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double vec_elems = (6.0 * e + (mdl.is_moe() ? 0.0 : f)) * bl / tp;
  return (Bytes(kVectorBytesPerElement * vec_elems) / sys.gpu.hbm_bandwidth)
      .value();
}

/// MoE AllToAll volume of one layer over `bl` tokens: each of the bl/tp
/// tokens a GPU owns goes to top_k experts (moe_dispatch; moe_combine
/// returns the same volume).
double moe_a2a_bytes(const model::TransformerConfig& mdl,
                     const parallel::ParallelConfig& cfg, double bl) {
  return ops::kBytesPerElement * (bl / static_cast<double>(cfg.n1 * cfg.n2)) *
         static_cast<double>(mdl.embed) *
         static_cast<double>(mdl.moe_top_k);
}

/// Roofline floor of the MoE expert MLP (parallel/moe_mlp.cpp) over `bl`
/// tokens run as at most `micros` microbatches, fwd + bwd: the tensor-core
/// FLOPs of moe_fc1 and moe_fc2 plus the HBM bytes of moe_gelu and of the
/// dispatch and combine packing. Both matmuls run on R = bl*top_k/n2 routed
/// tokens with F = f/n1 hidden columns, and ops::matmul counts the same
/// three terms for each: forward (2e-1)RF / (2F-1)Re, dgrad (2F-1)Re /
/// (2e-1)RF, wgrad (2R-1)eF per microbatch. Every term is linear in the
/// tokens but the wgrad's -1, paid once per microbatch, so `micros`
/// microbatches of bl/micros tokens cost exactly this with micros = their
/// count, and at least this when micros bounds it. GeLU moves
/// kVectorBytesPerElement per R*F element, dispatch and combine 2 x the
/// AllToAll volume forward and backward each. The router is left out.
double moe_mlp_time(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys,
                    const parallel::ParallelConfig& cfg, double bl,
                    double micros) {
  const double e = static_cast<double>(mdl.embed);
  const double F =
      static_cast<double>(mdl.hidden) / static_cast<double>(cfg.n1);
  const double R = bl * static_cast<double>(mdl.moe_top_k) /
                   static_cast<double>(cfg.n2);
  const double fc = (2.0 * e - 1.0) * R * F + (2.0 * F - 1.0) * R * e +
                    (2.0 * R - micros) * e * F;
  const Flops flops(2.0 * fc * (1.0 - kMoeFloorSlack));
  const Bytes bytes((kVectorBytesPerElement * R * F +
                     8.0 * moe_a2a_bytes(mdl, cfg, bl)) *
                    (1.0 - kMoeFloorSlack));
  return (flops / sys.gpu.tensor_flops).value() +
         (bytes / sys.gpu.hbm_bandwidth).value();
}

/// Floor on one stage's parameters: the layer's weights over at most the
/// tp GPUs (and the experts over at most min(nd, E) ranks) times the layers
/// per stage.
double stage_params_floor(const model::TransformerConfig& mdl,
                          const parallel::ParallelConfig& cfg) {
  const double tp = static_cast<double>(cfg.n1 * cfg.n2);
  const double layers = static_cast<double>(mdl.depth / cfg.np);
  const double moe_shard =
      mdl.is_moe() ? static_cast<double>(std::min(cfg.nd, mdl.moe_experts))
                   : 1.0;
  return static_cast<double>(mdl.params_per_layer()) / (tp * moe_shard) *
         layers;
}

/// Distributed Adam reads/writes ~28 B per locally updated parameter at
/// HBM bandwidth; it never overlaps in the model.
double adam_time(const hw::SystemConfig& sys,
                 const parallel::ParallelConfig& cfg, double params_floor) {
  const double shard_max = static_cast<double>(cfg.nd * cfg.n2);
  return (Bytes(28.0 * params_floor / shard_max) / sys.gpu.hbm_bandwidth)
      .value();
}

/// Fill base.tp1_bytes / tp2_bytes: the per-layer, per-microbatch TP
/// collective bytes (forward + conjugate backward) every placement moves
/// on TP1 and TP2, with the builders' own Table A2 volumes, scaled to what
/// the evaluator exposes. A single-panel op exposes (1 - tp_overlap) of
/// its comm; an op split into nb > 1 panels exposes at least one panel's
/// comm per panel step, t + max(0, t - t_panel)(nb - 1) >= t, so it counts
/// bytes/nb. The MoE MLP adds its moe_fc2 ReduceScatter pair on n1 and
/// its four AllToAlls (dispatch and combine, fwd and bwd) on the nd DP
/// group, all single-panel. Ring attention and recompute's repeated
/// forward are left out (floors only shrink).
void comm_volumes(const model::TransformerConfig& mdl,
                  const parallel::ParallelConfig& cfg, double b_loc,
                  const EvalOptions& opts, SearchBoundsBase& out) {
  constexpr double kb = ops::kBytesPerElement;
  const double exposed = 1.0 - opts.tp_overlap;
  const double l = static_cast<double>(mdl.seq_len);
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double ekv = static_cast<double>(mdl.kv_embed());
  const double n1 = static_cast<double>(cfg.n1);
  const double n2 = static_cast<double>(cfg.n2);
  const double bl = b_loc * l;

  // Attention K/V over n2 (2D and SUMMA): two AllGathers forward and their
  // ReduceScatters backward, or the linear-attention state AllReduce.
  const auto kv_bytes = [&] {
    if (mdl.attention == model::AttentionKind::kLinear) {
      const double eh = static_cast<double>(mdl.head_dim());
      const double hkv = static_cast<double>(mdl.kv_heads_or_default());
      return 2.0 * kb * b_loc * (hkv / n1) * eh * eh;
    }
    if (cfg.ring_attention) return 0.0;
    const double gather_len =
        mdl.attention == model::AttentionKind::kWindowed
            ? std::min(l, l / n2 + static_cast<double>(mdl.window))
            : l;
    return 4.0 * kb * b_loc * gather_len * ekv / n1;
  };
  // AG/RS pairs on the residual stream over n1: ln1, out_proj, ln2 and
  // mlp_fc2, or for MoE moe_fc2's, whose R = bl*top_k/n2 routed tokens
  // make it top_k pairs.
  const double pairs =
      mdl.is_moe() ? 3.0 + static_cast<double>(mdl.moe_top_k) : 4.0;
  if (mdl.is_moe()) {
    out.dp_bytes = 4.0 * moe_a2a_bytes(mdl, cfg, bl) * exposed;
  }

  switch (cfg.strategy) {
    case parallel::TpStrategy::TP1D:
      out.tp1_bytes = pairs * 2.0 * kb * bl * e * exposed;
      break;
    case parallel::TpStrategy::TP2D:
      out.tp1_bytes = pairs * 2.0 * kb * (bl / n2) * e * exposed;
      out.tp2_bytes = kv_bytes() * exposed;
      break;
    case parallel::TpStrategy::Summa2D: {
      // LN AllReduce x2 and the out_proj ReduceScatter over n1, then the
      // three SUMMA multiplies: per summa_matmul 3 M*K/n2 elements over n1
      // (forward broadcast, backward broadcast + reduce) and 3 K*N/n1
      // over n2, with M = bl.
      const double panel = cfg.nb > 1 ? 1.0 / static_cast<double>(cfg.nb)
                                      : exposed;
      out.tp1_bytes = 3.0 * 2.0 * kb * (bl / n2) * e * exposed +
                      3.0 * kb * bl * (e + e + f) / n2 * panel;
      out.tp2_bytes = kv_bytes() * exposed +
                      3.0 * kb * (e * (e + 2.0 * ekv) + e * f + f * e) / n1 *
                          panel;
      break;
    }
  }
}

}  // namespace

Seconds layer_comm_floor(const SearchBoundsBase& base,
                         const hw::Topology& fabric,
                         const parallel::ParallelConfig& cfg) {
  Seconds t =
      comm::collective_time_floor(fabric, cfg.n1, Bytes(base.tp1_bytes)) +
      comm::collective_time_floor(fabric, cfg.n2, Bytes(base.tp2_bytes));
  // The kernel prices the DP-group AllToAlls at nd (any placement).
  if (base.dp_bytes > 0) {
    t += comm::collective_time_floor(fabric, cfg.nd, Bytes(base.dp_bytes));
  }
  return t;
}

SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts) {
  return search_bounds(mdl, sys, sys.resolved_fabric(), cfg, global_batch,
                       opts);
}

SearchBounds search_bounds(const model::TransformerConfig& mdl,
                           const hw::SystemConfig& sys,
                           const hw::Topology& fabric,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const EvalOptions& opts) {
  return finish_search_bounds(search_bounds_base(mdl, sys, cfg, global_batch,
                                                 opts),
                              mdl, fabric, cfg);
}

SearchBoundsBase search_bounds_base(const model::TransformerConfig& mdl,
                                    const hw::SystemConfig& sys,
                                    const parallel::ParallelConfig& cfg,
                                    std::int64_t global_batch,
                                    const EvalOptions& opts) {
  SearchBoundsBase out;
  const double tp = static_cast<double>(cfg.n1 * cfg.n2);
  const double b_loc = static_cast<double>(cfg.local_microbatch(global_batch));
  const double bl = b_loc * static_cast<double>(mdl.seq_len);

  // 1F1B: m steady microbatches plus the (np-1)/v bubble, each at least the
  // per-stage FLOP + vector time of one microbatch.
  const double layers = static_cast<double>(mdl.depth / cfg.np);
  const double micros = static_cast<double>(cfg.microbatches) +
                        static_cast<double>(cfg.np - 1) /
                            static_cast<double>(cfg.interleave);
  out.micro_layers = micros * layers;
  const Flops flops(layer_flops(mdl, bl, tp, std::min(tp, bl)));
  double layer_time = (flops / sys.gpu.tensor_flops).value() +
                      layer_vector_time(mdl, sys, bl, tp);
  if (mdl.is_moe()) layer_time += moe_mlp_time(mdl, sys, cfg, bl, 1.0);
  out.compute_floor = out.micro_layers * layer_time;
  out.stage_params_floor = stage_params_floor(mdl, cfg);
  out.compute_floor += adam_time(sys, cfg, out.stage_params_floor);
  out.memory_floor = memory_floor(mdl, cfg, global_batch, opts);
  out.bl = bl;
  out.tp = tp;
  comm_volumes(mdl, cfg, b_loc, opts, out);
  return out;
}

double memory_floor(const model::TransformerConfig& mdl,
                    const parallel::ParallelConfig& cfg,
                    std::int64_t global_batch, const EvalOptions& opts) {
  // FP16 weights + gradients (ZeRO-3 additionally shards them over at most
  // nd * n2), optimizer states sharded over at most nd * n2, and at least
  // the block-boundary activation (b_loc x l x e over at most tp GPUs) per
  // layer per in-flight microbatch — the floor both with and without full
  // activation recompute.
  const double params_floor = stage_params_floor(mdl, cfg);
  const double shard_max = static_cast<double>(cfg.nd * cfg.n2);
  const double wg = cfg.zero == parallel::ZeroStage::kWeights
                        ? 4.0 * params_floor / shard_max
                        : 4.0 * params_floor;
  const double opt_states = 12.0 * params_floor / shard_max;
  const double in_flight =
      static_cast<double>(std::min(cfg.np, cfg.microbatches));
  const double bl = static_cast<double>(cfg.local_microbatch(global_batch)) *
                    static_cast<double>(mdl.seq_len);
  const double act = 2.0 * bl * static_cast<double>(mdl.embed) /
                     static_cast<double>(cfg.n1 * cfg.n2) *
                     static_cast<double>(mdl.depth / cfg.np) * in_flight *
                     (1.0 - opts.activation_offload);
  return wg + opt_states + act;
}

PrefixFloorBase prefix_floor_base(const model::TransformerConfig& mdl,
                                  const hw::SystemConfig& sys,
                                  const parallel::ParallelConfig& cfg,
                                  std::int64_t global_batch,
                                  const EvalOptions& opts) {
  PrefixFloorBase out;
  const double tp = static_cast<double>(cfg.n1 * cfg.n2);
  const double batch = static_cast<double>(global_batch / cfg.nd);
  const double bl = batch * static_cast<double>(mdl.seq_len);
  out.layers = static_cast<double>(mdl.depth / cfg.np);

  // m microbatches of B/m samples: every per-microbatch term but the SUMMA
  // weight traffic is linear in the tokens, so m of them cost at least one
  // B-sample microbatch; the wgrad split is capped at min(B * tp, B * l)
  // over the m microbatches (the MoE wgrad's -1 is paid m <= B times); the
  // bubble is dropped.
  const Flops flops(layer_flops(mdl, bl, tp, std::min(batch * tp, bl)));
  double layer_time = (flops / sys.gpu.tensor_flops).value() +
                      layer_vector_time(mdl, sys, bl, tp);
  if (mdl.is_moe()) layer_time += moe_mlp_time(mdl, sys, cfg, bl, batch);
  out.compute_floor = out.layers * layer_time;
  out.compute_floor += adam_time(sys, cfg, stage_params_floor(mdl, cfg));

  // TP collectives at b_loc = B: collective_time_floor is linear in the
  // bytes, and the per-microbatch SUMMA weight broadcasts counted once are
  // at most their m copies. A ring child exposes no K/V gathers, which
  // cfg.ring_attention carries.
  comm_volumes(mdl, cfg, batch, opts, out.volumes);

  // The pipeline handoffs of all m microbatches at v = 1 carry at least the
  // whole local batch's boundary tensor twice. ZeRO-3 only adds.
  out.boundary_bytes = 2.0 * bl * static_cast<double>(mdl.embed) / tp;
  return out;
}

double finish_prefix_floor(const PrefixFloorBase& base,
                           const hw::Topology& fabric,
                           const parallel::ParallelConfig& cfg) {
  double t = base.compute_floor;
  t += layer_comm_floor(base.volumes, fabric, cfg).value() * base.layers;
  if (cfg.np > 1) {
    t += (Bytes(base.boundary_bytes) / comm::best_p2p_bandwidth(fabric))
             .value() *
         2.0;
  }
  return t * (1.0 - kPrefixFloorSlack);
}

double prefix_time_floor(const model::TransformerConfig& mdl,
                         const hw::SystemConfig& sys,
                         const hw::Topology& fabric,
                         const parallel::ParallelConfig& cfg,
                         std::int64_t global_batch, const EvalOptions& opts) {
  return finish_prefix_floor(
      prefix_floor_base(mdl, sys, cfg, global_batch, opts), fabric, cfg);
}

SearchBounds finish_search_bounds(const SearchBoundsBase& base,
                                  const model::TransformerConfig& mdl,
                                  const hw::Topology& fabric,
                                  const parallel::ParallelConfig& cfg) {
  SearchBounds out;
  out.time_floor = base.compute_floor;
  out.memory_floor = base.memory_floor;

  // Exposed layer collectives: every op adds its comm to its roofline
  // time, and the stage times (comm included) feed the 1F1B bubble.
  out.time_floor += (layer_comm_floor(base, fabric, cfg) *
                     (base.micro_layers * (1.0 - kTpCommFloorSlack)))
                        .value();

  // --- Network floors from the fabric's bottleneck levels. ---
  // Bandwidth-only (latency dropped), so they hold for every placement and
  // every collective algorithm the topology may enable.
  if (cfg.np > 1) {
    // Every microbatch hands the (b_loc x l x e)/tp boundary tensor across
    // each stage boundary twice per virtual chunk, at best over the fastest
    // single link of the fabric.
    const double e = static_cast<double>(mdl.embed);
    const Bytes boundary = Bytes(2.0 * base.bl * e / base.tp);
    out.time_floor += (boundary / comm::best_p2p_bandwidth(fabric)).value() *
                      (2.0 * static_cast<double>(cfg.microbatches) *
                       static_cast<double>(cfg.interleave));
  }
  if (cfg.zero == parallel::ZeroStage::kWeights && cfg.nd > 1) {
    // ZeRO-3 re-gathers the stage weights for forward and backward and
    // reduce-scatters the gradients on every microbatch, half overlapped:
    // three collectives of the 2 B/param stage volume over at least the nd
    // data-parallel ranks (collective_time_floor is monotone in both the
    // group size and the volume, so the nd-rank floor stays conservative
    // when the DP group also absorbs n2).
    const Bytes grads = Bytes(2.0 * base.stage_params_floor);
    out.time_floor += (comm::collective_time_floor(fabric, cfg.nd, grads) *
                       (3.0 * 0.5 * static_cast<double>(cfg.microbatches)))
                          .value();
  }
  return out;
}

double shape_time_floor(const model::TransformerConfig& mdl,
                        const hw::SystemConfig& sys, std::int64_t n_gpus,
                        std::int64_t global_batch) {
  const double n = static_cast<double>(n_gpus);
  const double b = static_cast<double>(global_batch);
  const double l = static_cast<double>(mdl.seq_len);
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double eh = static_cast<double>(mdl.head_dim());
  const double ekv = static_cast<double>(mdl.kv_embed());
  const double lkv = static_cast<double>(mdl.attended_len());
  const double d = static_cast<double>(mdl.depth);
  const double tokens = b * l;

  // tp -> n relaxation of the per-configuration terms (see header): each
  // factor collapse leaves coeff * (2k - min(n, k)) * tokens * d / n.
  const auto shard = [n](double k) { return 2.0 * k - std::min(n, k); };
  // The wgrad contraction runs over the token dimension; its total split
  // count across DP ranks, microbatches and sequence shards is at most
  // min(b * n, tokens).
  const double wgrad_coeff = 2.0 * tokens - std::min(b * n, tokens);
  // Per (C, K) projection pair: fwd + min(SUMMA-style 2x fwd,
  // dgrad + wgrad) — the same cross-builder min as projection_floor.
  const auto pair = [&](double C, double K) {
    const double fwd = C * shard(K) * tokens;
    const double bwd =
        std::min(2.0 * fwd, K * shard(C) * tokens + C * K * wgrad_coeff);
    return fwd + bwd;
  };
  double flops = 2.0 * pair(e, e) + 2.0 * pair(ekv, e);
  // The MoE expert MLP is dropped here (see the header).
  if (!mdl.is_moe()) flops += pair(f, e) + pair(e, f);
  // Fused attention, head dim never sharded (no relaxation loss): the term
  // that separates iso-parameter shapes — it grows with e*d at fixed
  // parameter budget, so narrow-deep shapes floor higher than wide-shallow.
  flops += kAttentionFwdBwd * static_cast<double>(mdl.heads) * tokens * lkv *
           (4.0 * eh + 3.0);
  double t = (Flops(flops * d / n) / sys.gpu.tensor_flops).value();
  // Mandatory vector ops, HBM side (element totals are conserved by every
  // sharding, so the per-GPU share is at least 1/n).
  const double vec_elems = (6.0 * e + (mdl.is_moe() ? 0.0 : f)) * tokens;
  t += (Bytes(kVectorBytesPerElement * vec_elems * d / n) /
        sys.gpu.hbm_bandwidth)
           .value();
  return t;
}

double decode_round_floor(Bytes stage_weight_bytes, Bytes stage_kv_bytes,
                          const hw::GpuSpec& gpu) {
  return ((stage_weight_bytes + stage_kv_bytes) / gpu.hbm_bandwidth).value();
}

}  // namespace tfpe::core
