#include "core/cost_signature.hpp"

#include <algorithm>

#include "analysis/invariants.hpp"
#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
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

/// Exposed collective time of one op pass: the request sum at per-panel
/// volume, with the SUMMA prologue/overlap model against the panel's
/// roofline time. Mirrors core::op_time's comm path bitwise.
Seconds exposed_comm(const CostSignature& sig, std::uint32_t begin,
                     std::uint32_t count, std::int64_t panels, Seconds t_panel,
                     const hw::Topology& fabric,
                     const parallel::ParallelConfig& cfg) {
  const double inv_panels = 1.0 / static_cast<double>(panels);
  Seconds t_panel_comm;
  for (std::uint32_t i = begin; i < begin + count; ++i) {
    const SigComm& req = sig.comm[i];
    t_panel_comm +=
        comm::collective_time(fabric, req.collective, req.bytes * inv_panels,
                              placement_for(cfg, req.group));
  }
  if (panels == 1) return t_panel_comm;
  return t_panel_comm + std::max(Seconds(0), t_panel_comm - t_panel) *
                            static_cast<double>(panels - 1);
}

constexpr std::size_t group_index(ops::CommGroup g) {
  return static_cast<std::size_t>(g);
}

/// The per-op lowering loop, shared verbatim by the training compiler
/// below and the decode compiler (compile_decode_signature) — same record
/// layout, same accumulation order, so extracting it is pure code motion
/// for the training path (bitwise-pinned by the golden tests).
void lower_ops(CostSignature& sig, const parallel::LayerCost& layer) {
  sig.ops.reserve(layer.ops.size());
  std::size_t requests = 0;
  for (const auto& op : layer.ops) {
    requests += op.fwd_comm.size() + op.bwd_comm.size();
  }
  sig.comm.reserve(requests);
  for (const auto& op : layer.ops) {
    SigOp s;
    s.fwd_flops = op.fwd_flops;
    s.fwd_bytes = op.fwd_bytes;
    s.bwd_flops = op.bwd_flops;
    s.bwd_bytes = op.bwd_bytes;
    s.panels = std::max<std::int64_t>(1, op.summa_panels);
    s.tensor_core = op.unit == ops::ComputeUnit::TensorCore;
    s.fwd_comm_begin = static_cast<std::uint32_t>(sig.comm.size());
    for (const auto& req : op.fwd_comm) {
      sig.comm.push_back({req.collective, req.group, req.bytes});
      sig.fwd_comm_volume[group_index(req.group)] += req.bytes;
    }
    s.fwd_comm_count =
        static_cast<std::uint32_t>(sig.comm.size()) - s.fwd_comm_begin;
    s.bwd_comm_begin = static_cast<std::uint32_t>(sig.comm.size());
    for (const auto& req : op.bwd_comm) {
      sig.comm.push_back({req.collective, req.group, req.bytes});
      sig.bwd_comm_volume[group_index(req.group)] += req.bytes;
    }
    s.bwd_comm_count =
        static_cast<std::uint32_t>(sig.comm.size()) - s.bwd_comm_begin;
    if (s.tensor_core) {
      sig.matmul_fwd_flops += op.fwd_flops;
      sig.matmul_bwd_flops += op.bwd_flops;
      sig.matmul_fwd_bytes += op.fwd_bytes;
      sig.matmul_bwd_bytes += op.bwd_bytes;
    } else {
      sig.vector_fwd_flops += op.fwd_flops;
      sig.vector_bwd_flops += op.bwd_flops;
      sig.vector_fwd_bytes += op.fwd_bytes;
      sig.vector_bwd_bytes += op.bwd_bytes;
    }
    sig.ops.push_back(s);
  }
}

}  // namespace

CostSignature compile_layer(const model::TransformerConfig& mdl,
                            const parallel::ParallelConfig& cfg,
                            std::int64_t global_batch,
                            const parallel::LayerCost& layer) {
  CostSignature sig;
  lower_ops(sig, layer);

  sig.stored_activation_bytes = layer.stored_bytes();
  sig.pp_boundary_bytes = layer.pp_boundary_bytes;
  sig.weight_params = layer.weight_params;
  sig.dp_group_includes_tp2 = layer.dp_group_includes_tp2;

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
    sig.head.reserve(3);
    for (const ops::Op* op : {&logits, &loss, &embed_gather}) {
      sig.head.push_back({op->fwd_flops, op->fwd_bytes, op->bwd_flops,
                          op->bwd_bytes,
                          op->unit == ops::ComputeUnit::TensorCore});
    }
    sig.head_weight_params = static_cast<double>(mdl.vocab) *
                             static_cast<double>(mdl.embed) /
                             static_cast<double>(cfg.n1);
  }
  return sig;
}

SignatureTail compile_tail(const model::TransformerConfig& mdl,
                           const parallel::ParallelConfig& cfg,
                           std::int64_t global_batch,
                           const BlockScalars& block,
                           const EvalOptions& opts) {
  SignatureTail t;
  t.microbatches = cfg.microbatches;
  t.np = cfg.np;
  t.layers_per_stage = mdl.depth / cfg.np;
  t.local_microbatch = cfg.local_microbatch(global_batch);

  const double Ld = static_cast<double>(t.layers_per_stage);
  t.stage_params = block.weight_params * Ld;
  t.dp_size = cfg.nd;
  if (block.dp_group_includes_tp2) t.dp_size *= cfg.n2;
  t.dp_grad_bytes = Bytes(2.0 * t.stage_params);
  double opt_shard = static_cast<double>(cfg.nd);
  if (block.dp_group_includes_tp2) opt_shard *= static_cast<double>(cfg.n2);
  t.opt_shard = opt_shard;
  t.optimizer_traffic = Bytes(28.0 * t.stage_params / opt_shard);

  const std::int64_t in_flight =
      pipeline::in_flight_microbatches(cfg.np, cfg.microbatches);
  t.mem = memory::compute_memory(block.weight_params,
                                 block.dp_group_includes_tp2,
                                 block.stored_activation_bytes, cfg,
                                 t.layers_per_stage, in_flight);
  if (opts.activation_recompute) {
    t.mem.activations =
        block.pp_boundary_bytes * (Ld * static_cast<double>(in_flight));
  }
  t.mem.activations *= 1.0 - opts.activation_offload;
  if (block.head_weight_params > 0) {
    t.mem.weights += Bytes(2.0 * block.head_weight_params);
    t.mem.gradients += Bytes(2.0 * block.head_weight_params);
    t.mem.optimizer += Bytes(12.0 * block.head_weight_params / opt_shard);
  }
  return t;
}

CostSignature compile_signature(const model::TransformerConfig& mdl,
                                const parallel::ParallelConfig& cfg,
                                std::int64_t global_batch,
                                const parallel::LayerCost& layer,
                                const EvalOptions& opts) {
  CostSignature sig = compile_layer(mdl, cfg, global_batch, layer);
  static_cast<SignatureTail&>(sig) =
      compile_tail(mdl, cfg, global_batch, sig, opts);
  return sig;
}

CostSignature compile_signature(const model::TransformerConfig& mdl,
                                const parallel::ParallelConfig& cfg,
                                std::int64_t global_batch,
                                const EvalOptions& opts) {
  const std::int64_t local = cfg.local_microbatch(global_batch);
  const parallel::LayerCost layer = parallel::build_layer(mdl, cfg, local);
#ifndef NDEBUG
  analysis::assert_layer_invariants(mdl, cfg, local, layer);
#endif
  return compile_signature(mdl, cfg, global_batch, layer, opts);
}

SystemTiming bind_system(const CostSignature& sig, const hw::SystemConfig& sys,
                         const EvalOptions& opts) {
  SystemTiming bt;
  bt.fabric = sys.resolved_fabric();
  Seconds fwd_c, fwd_m, bwd_c, bwd_m;
  for (const SigOp& op : sig.ops) {
    const PanelRoofline f =
        panel_roofline(op.fwd_flops, op.fwd_bytes, op.panels, op.tensor_core,
                       sys.gpu);
    const PanelRoofline b =
        panel_roofline(op.bwd_flops, op.bwd_bytes, op.panels, op.tensor_core,
                       sys.gpu);
    fwd_c += f.compute;
    fwd_m += f.memory;
    bwd_c += b.compute;
    bwd_m += b.memory;
    if (opts.activation_recompute) {
      bwd_c += f.compute;
      bwd_m += f.memory;
    }
    if (op.panels > 1) bt.summa_panel_time.push_back({f.t_panel, b.t_panel});
  }

  if (opts.activation_offload > 0) {
    const Seconds per_micro = sig.stored_activation_bytes *
                              (2.0 * opts.activation_offload) /
                              sys.host_bandwidth;
    fwd_m += per_micro * 0.5;
    bwd_m += per_micro * 0.5;
  }

  Seconds head_fwd_c, head_fwd_m, head_bwd_c, head_bwd_m;
  for (const SigHeadOp& op : sig.head) {
    const PanelRoofline f =
        panel_roofline(op.fwd_flops, op.fwd_bytes, 1, op.tensor_core, sys.gpu);
    const PanelRoofline b =
        panel_roofline(op.bwd_flops, op.bwd_bytes, 1, op.tensor_core, sys.gpu);
    head_fwd_c += f.compute;
    head_fwd_m += f.memory;
    head_bwd_c += b.compute;
    head_bwd_m += b.memory;
  }

  const double Ld = static_cast<double>(sig.layers_per_stage);
  const double md = static_cast<double>(sig.microbatches);
  bt.time_compute =
      (((fwd_c + bwd_c) * Ld + head_fwd_c + head_bwd_c) * md).value();
  bt.time_memory =
      (((fwd_m + bwd_m) * Ld + head_fwd_m + head_bwd_m) * md).value();
  bt.optimizer = (sig.optimizer_traffic / sys.gpu.hbm_bandwidth).value();
  bt.fwd_cm = fwd_c + fwd_m;
  bt.bwd_cm = bwd_c + bwd_m;
  bt.head_fwd_cm = head_fwd_c + head_fwd_m;
  bt.head_bwd_cm = head_bwd_c + head_bwd_m;
  return bt;
}

CostSignature adapt_to_phase(CostSignature sig, ExecutionPhase phase) {
  sig.phase = phase;
  for (SigOp& op : sig.ops) {
    op.bwd_flops = Flops(0);
    op.bwd_bytes = Bytes(0);
    op.bwd_comm_count = 0;
  }
  for (SigHeadOp& op : sig.head) {
    op.bwd_flops = Flops(0);
    op.bwd_bytes = Bytes(0);
  }
  sig.matmul_bwd_flops = Flops(0);
  sig.matmul_bwd_bytes = Bytes(0);
  sig.vector_bwd_flops = Flops(0);
  sig.vector_bwd_bytes = Bytes(0);
  sig.bwd_comm_volume = {};
  sig.dp_grad_bytes = Bytes(0);
  sig.optimizer_traffic = Bytes(0);
  // No backward: the gradient/optimizer residency vanishes, and nothing
  // accumulates across layers for a pass that never reverses — the forward
  // consumes each layer's activations as it produces the next. One layer's
  // stored footprint stays as a conservative bound on the live transient
  // buffers (training instead keeps layers_per_stage of them resident).
  sig.mem.gradients = Bytes(0);
  sig.mem.optimizer = Bytes(0);
  sig.mem.activations = sig.stored_activation_bytes;
  sig.stored_activation_bytes = Bytes(0);
  return sig;
}

CostSignature compile_decode_signature(const model::TransformerConfig& mdl,
                                       const parallel::ParallelConfig& cfg,
                                       double tokens_per_group,
                                       double kv_len) {
  const parallel::LayerCost layer =
      parallel::build_decode_layer(mdl, cfg.n1, tokens_per_group, kv_len);

  CostSignature sig;
  sig.phase = ExecutionPhase::kDecode;
  sig.phase_tokens = tokens_per_group;
  sig.microbatches = cfg.np;  // np decode groups rotate around the stages
  sig.np = cfg.np;
  sig.layers_per_stage = mdl.depth / cfg.np;
  sig.local_microbatch = 1;

  lower_ops(sig, layer);

  sig.stored_activation_bytes = Bytes(0);
  sig.pp_boundary_bytes = layer.pp_boundary_bytes;
  sig.weight_params = layer.weight_params;
  const double Ld = static_cast<double>(sig.layers_per_stage);
  sig.stage_params = layer.weight_params * Ld;
  // No data-parallel replica group, no optimizer: serving replicas are
  // nd = 1 and the backward dimension does not exist in this phase.
  sig.dp_size = 1;
  sig.dp_grad_bytes = Bytes(0);
  sig.opt_shard = 1;
  sig.optimizer_traffic = Bytes(0);

  if (mdl.vocab > 0) {
    // Every decode step samples from the full vocabulary: the lm_head GEMV
    // re-reads the (e x V/n1) shard, plus the softmax over the logits.
    const double Vshard =
        static_cast<double>(mdl.vocab) / static_cast<double>(cfg.n1);
    const ops::Op logits = ops::forward_only(ops::matmul(
        "lm_head", tokens_per_group, Vshard, static_cast<double>(mdl.embed)));
    const ops::Op soft = ops::forward_only(
        ops::vector_op("softmax", tokens_per_group * Vshard, 5.0, 0.0));
    for (const ops::Op* op : {&logits, &soft}) {
      sig.head.push_back({op->fwd_flops, op->fwd_bytes, op->bwd_flops,
                          op->bwd_bytes,
                          op->unit == ops::ComputeUnit::TensorCore});
    }
    sig.head_weight_params = static_cast<double>(mdl.vocab) *
                             static_cast<double>(mdl.embed) /
                             static_cast<double>(cfg.n1);
  }

  // Transient working set: the double-buffered (R, e) stream plus the
  // (R, f/nt) MLP intermediate — nothing is retained across ops.
  const Bytes working =
      Bytes(ops::kBytesPerElement * tokens_per_group *
            (2.0 * static_cast<double>(mdl.embed) +
             static_cast<double>(mdl.hidden) / static_cast<double>(cfg.n1)));
  // The K/V term is owned by the serving estimator (it decides residency
  // from the KV budget); the signature carries the weight/working terms.
  sig.mem = memory::compute_inference_memory(layer, sig.layers_per_stage,
                                             Bytes(0), working);
  if (sig.head_weight_params > 0) {
    sig.mem.weights += Bytes(2.0 * sig.head_weight_params);
  }
  return sig;
}

CostSignature compile_signature(const model::TransformerConfig& mdl,
                                const parallel::ParallelConfig& cfg,
                                std::int64_t global_batch,
                                const Workload& workload,
                                const EvalOptions& opts) {
  switch (workload.phase) {
    case ExecutionPhase::kTraining:
      // The Training-phase adapter: delegate to the historical lowering
      // unchanged (bitwise-pinned by tests/test_workload.cpp).
      return compile_signature(mdl, cfg, global_batch, opts);
    case ExecutionPhase::kPrefill: {
      model::TransformerConfig prompt = mdl;
      if (workload.prompt_len > 0) prompt.seq_len = workload.prompt_len;
      return adapt_to_phase(compile_signature(prompt, cfg, global_batch, opts),
                            ExecutionPhase::kPrefill);
    }
    case ExecutionPhase::kDecode:
      return compile_decode_signature(
          mdl, cfg,
          static_cast<double>(global_batch) / static_cast<double>(cfg.np),
          workload.decode_kv_len());
  }
  return compile_signature(mdl, cfg, global_batch, opts);
}

PhaseTiming time_phase(const CostSignature& sig, const SystemTiming& base,
                       const parallel::ParallelConfig& cfg,
                       const EvalOptions& opts) {
  // The forward arm of the training kernel's exposed-comm walk, alone:
  // decode and prefill signatures carry no backward records, and the bound
  // backward terms of `base` are never read (see the header note on the
  // zero-operand t_sf attribution).
  Seconds fwd_comm;
  std::size_t summa = 0;
  for (const SigOp& op : sig.ops) {
    std::array<Seconds, 2> panel{};
    if (op.panels > 1) panel = base.summa_panel_time[summa++];
    Seconds f_comm;
    if (op.fwd_comm_count > 0) {
      f_comm = exposed_comm(sig, op.fwd_comm_begin, op.fwd_comm_count,
                            op.panels, panel[0], base.fabric, cfg);
    }
    if (op.panels <= 1 && opts.tp_overlap > 0) {
      f_comm *= 1.0 - opts.tp_overlap;
    }
    fwd_comm += f_comm;
  }
  const double Ld = static_cast<double>(sig.layers_per_stage);
  PhaseTiming out;
  out.comm = fwd_comm * Ld;
  out.t_stage = (base.fwd_cm + fwd_comm) * Ld;
  if (!sig.head.empty()) out.t_stage += base.head_fwd_cm;
  return out;
}

}  // namespace tfpe::core
