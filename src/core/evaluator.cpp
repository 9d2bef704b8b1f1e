#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "analysis/invariants.hpp"
#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
#include "core/cost_signature.hpp"
#include "ops/op_factory.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

comm::GroupPlacement placement_for(const parallel::ParallelConfig& cfg,
                                   ops::CommGroup group) {
  switch (group) {
    case ops::CommGroup::TP1: return {cfg.n1, cfg.nvs1};
    case ops::CommGroup::TP2: return {cfg.n2, cfg.nvs2};
    case ops::CommGroup::DP: return {cfg.nd, cfg.nvsd};
    case ops::CommGroup::PP: return {cfg.np, cfg.nvsp};
  }
  return {1, 1};
}

/// Sum of collective times for a request list, with volumes scaled by
/// 1/panels (per-panel time; latency paid per panel).
Seconds comm_time(const std::vector<ops::CommRequest>& reqs,
                  const hw::Topology& fabric,
                  const parallel::ParallelConfig& cfg, double inv_panels) {
  Seconds t;
  for (const auto& req : reqs) {
    t += comm::collective_time(fabric, req.collective, req.bytes * inv_panels,
                               placement_for(cfg, req.group));
  }
  return t;
}

}  // namespace

void EvalOptions::validate() const {
  const auto in_unit = [](const char* field, double v) {
    if (v >= 0.0 && v <= 1.0) return;
    std::ostringstream msg;
    msg << "EvalOptions::" << field << " must lie in [0, 1], got " << v;
    throw std::invalid_argument(msg.str());
  };
  in_unit("tp_overlap", tp_overlap);
  in_unit("activation_offload", activation_offload);
}

OpTime op_time(const ops::Op& op, bool backward, const hw::SystemConfig& sys,
               const parallel::ParallelConfig& cfg) {
  return op_time(op, backward, sys, sys.resolved_fabric(), cfg);
}

OpTime op_time(const ops::Op& op, bool backward, const hw::SystemConfig& sys,
               const hw::Topology& fabric, const parallel::ParallelConfig& cfg) {
  const Flops flops = backward ? op.bwd_flops : op.fwd_flops;
  const Bytes bytes = backward ? op.bwd_bytes : op.fwd_bytes;
  const auto& reqs = backward ? op.bwd_comm : op.fwd_comm;

  const std::int64_t panels = std::max<std::int64_t>(1, op.summa_panels);
  const double inv_panels = 1.0 / static_cast<double>(panels);

  // Per-panel roofline (panels == 1 for everything but SUMMA multiplies);
  // shared with the two-phase binder so both evaluators time ops with the
  // exact same arithmetic.
  const PanelRoofline r = panel_roofline(
      flops, bytes, panels, op.unit == ops::ComputeUnit::TensorCore, sys.gpu);
  OpTime out;
  out.compute = r.compute;
  out.memory = r.memory;

  if (reqs.empty()) return out;
  const Seconds t_panel_comm = comm_time(reqs, fabric, cfg, inv_panels);
  if (panels == 1) {
    // Non-SUMMA collectives are fully exposed (partial sums must complete
    // before the collective; successors wait on the synced tensor).
    out.comm = t_panel_comm;
  } else {
    // SUMMA: the first panel's broadcasts are a prologue; later panels'
    // broadcasts overlap the previous panel's matmul and only the excess is
    // exposed (Appendix A).
    out.comm = t_panel_comm + std::max(Seconds(0), t_panel_comm - r.t_panel) *
                                  static_cast<double>(panels - 1);
  }
  return out;
}

EvalResult evaluate_with_layer(const model::TransformerConfig& mdl,
                               const hw::SystemConfig& sys,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t global_batch,
                               const parallel::LayerCost& layer,
                               const EvalOptions& opts) {
  EvalResult res;
  res.cfg = cfg;
  if (auto why = cfg.invalid_reason(mdl, sys, global_batch)) {
    res.reason = *why;
    return res;
  }

#ifndef NDEBUG
  // Debug builds cross-check every evaluated op list against the invariant
  // analyzer's independent re-derivation of the paper tables.
  analysis::assert_layer_invariants(mdl, cfg, cfg.local_microbatch(global_batch),
                                    layer);
#endif

  const std::int64_t m = cfg.microbatches;
  const std::int64_t layers = mdl.depth / cfg.np;
  const double Ld = static_cast<double>(layers);
  const double md = static_cast<double>(m);

  // Resolve the fabric once per evaluation; every collective below walks it.
  const hw::Topology fabric = sys.resolved_fabric();

  // Per-microbatch, per-stage forward/backward components. Non-SUMMA TP
  // collectives can be partially overlapped via the tp_overlap extension
  // (SUMMA broadcasts carry their own overlap model).
  OpTime fwd{}, bwd{};
  for (const auto& op : layer.ops) {
    OpTime f = op_time(op, /*backward=*/false, sys, fabric, cfg);
    OpTime b = op_time(op, /*backward=*/true, sys, fabric, cfg);
    if (op.summa_panels <= 1 && opts.tp_overlap > 0) {
      f.comm *= 1.0 - opts.tp_overlap;
      b.comm *= 1.0 - opts.tp_overlap;
    }
    fwd.compute += f.compute;
    fwd.memory += f.memory;
    fwd.comm += f.comm;
    bwd.compute += b.compute;
    bwd.memory += b.memory;
    bwd.comm += b.comm;
    if (opts.activation_recompute) {
      // The backward pass re-runs the whole block forward (including its
      // collectives) before differentiating it.
      bwd.compute += f.compute;
      bwd.memory += f.memory;
      bwd.comm += f.comm;
    }
  }

  // Activation offload: write out and read back the offloaded fraction of
  // every stored tensor over the host link, once per microbatch per stage.
  if (opts.activation_offload > 0) {
    const Seconds per_micro = layer.stored_bytes() *
                              (2.0 * opts.activation_offload) /
                              sys.host_bandwidth;
    fwd.memory += per_micro * 0.5;  // write-out during forward
    bwd.memory += per_micro * 0.5;  // read-back during backward
  }

  const Seconds t_fwd_micro = (fwd.compute + fwd.memory + fwd.comm) * Ld;
  const Seconds t_bwd_micro = (bwd.compute + bwd.memory + bwd.comm) * Ld;
  Seconds t_fwd_stage = t_fwd_micro;
  Seconds t_bwd_stage = t_bwd_micro;

  // Optional vocabulary modeling: the embedding gather on the first stage
  // and the logits matmul + softmax/cross-entropy on the last. The last
  // stage is the pipeline's critical stage, so its extra time enters the
  // steady period and the bubble (first-order stage-imbalance model).
  OpTime head_fwd{}, head_bwd{};
  double head_weight_params = 0;
  if (mdl.vocab > 0) {
    const double B = static_cast<double>(cfg.local_microbatch(global_batch));
    const double tokens2 =
        B * static_cast<double>(mdl.seq_len) / static_cast<double>(cfg.n2);
    const double Vshard =
        static_cast<double>(mdl.vocab) / static_cast<double>(cfg.n1);
    const ops::Op logits = ops::matmul(
        "lm_head", tokens2, Vshard, static_cast<double>(mdl.embed));
    const ops::Op loss = ops::vector_op("softmax_xent", tokens2 * Vshard, 6.0,
                                        tokens2 * Vshard);
    const ops::Op embed_gather =
        ops::vector_op("embedding", tokens2 * static_cast<double>(mdl.embed),
                       1.0, 0.0);
    for (const ops::Op* op : {&logits, &loss, &embed_gather}) {
      const OpTime f = op_time(*op, false, sys, fabric, cfg);
      const OpTime b = op_time(*op, true, sys, fabric, cfg);
      head_fwd.compute += f.compute;
      head_fwd.memory += f.memory;
      head_bwd.compute += b.compute;
      head_bwd.memory += b.memory;
    }
    t_fwd_stage += head_fwd.compute + head_fwd.memory;
    t_bwd_stage += head_bwd.compute + head_bwd.memory;
    head_weight_params = static_cast<double>(mdl.vocab) *
                         static_cast<double>(mdl.embed) /
                         static_cast<double>(cfg.n1);
  }
  res.t_fwd_micro = t_fwd_stage.value();
  res.t_bwd_micro = t_bwd_stage.value();

  // Steady phase: m microbatches, plus the (possibly interleaved) 1F1B
  // bubble.
  res.time.compute = (((fwd.compute + bwd.compute) * Ld + head_fwd.compute +
                       head_bwd.compute) *
                      md)
                         .value();
  res.time.memory =
      (((fwd.memory + bwd.memory) * Ld + head_fwd.memory + head_bwd.memory) *
       md)
          .value();
  res.time.tp_comm = ((fwd.comm + bwd.comm) * (md * Ld)).value();
  res.time.bubble =
      pipeline::bubble_time(cfg.np, t_fwd_stage, t_bwd_stage, cfg.interleave)
          .value();
  res.time.pp_comm =
      pipeline::p2p_time(fabric, cfg.np, m, layer.pp_boundary_bytes,
                         cfg.nvsp > 1 ? 2 : 1, cfg.interleave)
          .value();

  // Data-parallel communication; the 2D-TP weight-gradient reduction across
  // n2 joins the same group.
  const double stage_params = layer.weight_params * Ld;
  std::int64_t dp_size = cfg.nd;
  std::int64_t dp_nvs = cfg.nvsd;
  if (layer.dp_group_includes_tp2) {
    dp_size *= cfg.n2;
    dp_nvs *= cfg.nvs2;
  }
  if (dp_size > 1) {
    const Bytes grad_bytes = Bytes(2.0 * stage_params);
    const comm::GroupPlacement g{dp_size, dp_nvs};
    const Seconds t_rs = comm::collective_time(
        fabric, ops::Collective::ReduceScatter, grad_bytes, g);
    const Seconds t_ag = comm::collective_time(
        fabric, ops::Collective::AllGather, grad_bytes, g);
    if (cfg.zero == parallel::ZeroStage::kWeights) {
      // ZeRO-3: weights are re-AllGathered for forward and backward and the
      // gradients ReduceScattered on EVERY microbatch. Half of it overlaps
      // with the adjacent compute (first-order model).
      res.time.dp_comm = ((t_ag * 2.0 + t_rs) * (0.5 * md)).value();
    } else {
      // ZeRO-1: one gradient RS overlapped with the last microbatch's
      // backward, one weight AG with the first forward; only the excess is
      // exposed.
      res.time.dp_comm = (std::max(Seconds(0), t_rs - t_bwd_stage) +
                          std::max(Seconds(0), t_ag - t_fwd_stage))
                             .value();
    }
  }

  // Distributed Adam: each GPU updates its shard of the optimizer states
  // (read m1/m2/master, write back, read grad, write weight: ~28 B/param).
  double opt_shard = static_cast<double>(cfg.nd);
  if (layer.dp_group_includes_tp2) opt_shard *= static_cast<double>(cfg.n2);
  res.time.optimizer =
      (Bytes(28.0 * stage_params / opt_shard) / sys.gpu.hbm_bandwidth).value();

  // Memory feasibility.
  res.mem = memory::compute_memory(layer, cfg, layers,
                                   pipeline::in_flight_microbatches(cfg.np, m));
  if (opts.activation_recompute) {
    // Only the block-boundary inputs stay resident.
    res.mem.activations =
        layer.pp_boundary_bytes *
        (Ld * static_cast<double>(pipeline::in_flight_microbatches(cfg.np, m)));
  }
  res.mem.activations *= 1.0 - opts.activation_offload;
  if (head_weight_params > 0) {
    // The tied embedding/head shard lives on the boundary stages.
    res.mem.weights += Bytes(2.0 * head_weight_params);
    res.mem.gradients += Bytes(2.0 * head_weight_params);
    res.mem.optimizer += Bytes(12.0 * head_weight_params / opt_shard);
  }
  if (res.mem.total() > sys.gpu.hbm_capacity) {
    res.reason = "exceeds HBM capacity";
    return res;
  }

  res.feasible = true;
  return res;
}

EvalResult evaluate(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys,
                    const parallel::ParallelConfig& cfg,
                    std::int64_t global_batch, const EvalOptions& opts) {
  EvalResult res;
  res.cfg = cfg;
  if (auto why = cfg.invalid_reason(mdl, sys, global_batch)) {
    res.reason = *why;
    return res;
  }
  const parallel::LayerCost layer =
      parallel::build_layer(mdl, cfg, cfg.local_microbatch(global_batch));
  return evaluate_with_layer(mdl, sys, cfg, global_batch, layer, opts);
}

}  // namespace tfpe::core
