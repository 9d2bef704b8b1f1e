#include "core/cost_signature.hpp"

#include <algorithm>

#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "ops/op_factory.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

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
  static_cast<BlockScalars&>(sig) = block_scalars(mdl, cfg, layer);

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
  }
  return sig;
}

BlockScalars block_scalars(const model::TransformerConfig& mdl,
                           const parallel::ParallelConfig& cfg,
                           const parallel::LayerCost& layer) {
  BlockScalars s;
  s.stored_activation_bytes = layer.stored_bytes();
  s.pp_boundary_bytes = layer.pp_boundary_bytes;
  s.weight_params = layer.weight_params;
  s.dp_group_includes_tp2 = layer.dp_group_includes_tp2;
  if (mdl.vocab > 0) {
    s.head_weight_params = static_cast<double>(mdl.vocab) *
                           static_cast<double>(mdl.embed) /
                           static_cast<double>(cfg.n1);
  }
  return s;
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

double token_memory_floor(const model::TransformerConfig& mdl,
                          const parallel::ParallelConfig& cfg,
                          std::int64_t global_batch, const BlockScalars& unit,
                          const EvalOptions& opts) {
  const double B = static_cast<double>(cfg.local_microbatch(global_batch));
  BlockScalars block = unit;
  block.stored_activation_bytes = unit.stored_activation_bytes * B;
  block.pp_boundary_bytes = unit.pp_boundary_bytes * B;
  return compile_tail(mdl, cfg, global_batch, block, opts).mem.total().value() *
         (1.0 - 1e-9);
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
  return bind_system_batched(sig, lower_batched(sig), sys, opts);
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
  sig.microbatches = cfg.np;  // np decode groups rotate around the stages
  sig.np = cfg.np;
  sig.layers_per_stage = mdl.depth / cfg.np;
  sig.local_microbatch = 1;

  lower_ops(sig, layer);

  static_cast<BlockScalars&>(sig) = block_scalars(mdl, cfg, layer);
  sig.stored_activation_bytes = Bytes(0);
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

}  // namespace tfpe::core
