#include "core/cost_signature.hpp"

#include <algorithm>
#include <bit>
#include <initializer_list>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "ops/op_factory.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

/// Append one request to the block's comm pool, scaled by the owning op's
/// 1 / panels, and map it to its pricing row: the first earlier request
/// agreeing on kind, group and the exact volume bits makes the identical
/// pure collective_time call, so the two share a row. Bit equality (not ==)
/// so a would-be -0.0 / 0.0 collision can never alias two different calls.
void push_request(BatchedSignature& b, const ops::CommRequest& req,
                  double inv_panels) {
  const Bytes panel_bytes = req.bytes * inv_panels;
  const auto group = static_cast<std::uint8_t>(req.group);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(panel_bytes.value());
  const auto row = std::find_if(
      b.price_rep.begin(), b.price_rep.end(), [&](std::uint32_t rep) {
        return b.comm_kind[rep] == req.collective &&
               b.comm_group[rep] == group &&
               std::bit_cast<std::uint64_t>(
                   b.comm_panel_bytes[rep].value()) == bits;
      });
  b.comm_price_row.push_back(
      static_cast<std::uint32_t>(row - b.price_rep.begin()));
  if (row == b.price_rep.end()) {
    b.price_rep.push_back(static_cast<std::uint32_t>(b.comm_kind.size()));
  }
  b.comm_kind.push_back(req.collective);
  b.comm_group.push_back(group);
  b.comm_panel_bytes.push_back(panel_bytes);
  b.comm_groups_mask |= static_cast<std::uint8_t>(1u << group);
}

template <class... Columns>
void reserve(std::size_t n, Columns&... columns) {
  (columns.reserve(n), ...);
}

template <class... Columns>
void zero(Columns&... columns) {
  (columns.assign(columns.size(), {}), ...);
}

/// The one lowering of an op graph, shared by the training compiler
/// (compile_layer) and the decode compiler (compile_decode_signature): one
/// pass over the layer's ops into the block's rows and comm pool, then the
/// head ops' rows. Debug builds check the block against the layer.
BatchedSignature lower_ops(const parallel::LayerCost& layer,
                           std::initializer_list<const ops::Op*> head) {
  BatchedSignature b;
  const std::size_t n = layer.ops.size();
  std::size_t requests = 0;
  for (const auto& op : layer.ops) {
    requests += op.fwd_comm.size() + op.bwd_comm.size();
  }
  reserve(n, b.fwd_flops, b.bwd_flops, b.fwd_bytes, b.bwd_bytes, b.panels,
          b.tensor_core, b.fwd_comm_begin, b.fwd_comm_count, b.bwd_comm_begin,
          b.bwd_comm_count);
  reserve(requests, b.comm_kind, b.comm_group, b.comm_panel_bytes,
          b.comm_price_row, b.price_rep);

  for (std::size_t i = 0; i < n; ++i) {
    const ops::Op& op = layer.ops[i];
    const std::int64_t panels = std::max<std::int64_t>(1, op.summa_panels);
    const double inv_panels = 1.0 / static_cast<double>(panels);
    b.fwd_flops.push_back(op.fwd_flops);
    b.bwd_flops.push_back(op.bwd_flops);
    b.fwd_bytes.push_back(op.fwd_bytes);
    b.bwd_bytes.push_back(op.bwd_bytes);
    b.panels.push_back(panels);
    b.tensor_core.push_back(op.unit == ops::ComputeUnit::TensorCore ? 1 : 0);
    if (panels > 1) b.summa_ops.push_back(static_cast<std::uint32_t>(i));
    b.fwd_comm_begin.push_back(static_cast<std::uint32_t>(b.comm_kind.size()));
    for (const auto& req : op.fwd_comm) push_request(b, req, inv_panels);
    b.fwd_comm_count.push_back(static_cast<std::uint32_t>(
        b.comm_kind.size() - b.fwd_comm_begin.back()));
    b.bwd_comm_begin.push_back(static_cast<std::uint32_t>(b.comm_kind.size()));
    for (const auto& req : op.bwd_comm) push_request(b, req, inv_panels);
    b.bwd_comm_count.push_back(static_cast<std::uint32_t>(
        b.comm_kind.size() - b.bwd_comm_begin.back()));
  }

  for (const ops::Op* op : head) {
    b.head_fwd_flops.push_back(op->fwd_flops);
    b.head_bwd_flops.push_back(op->bwd_flops);
    b.head_fwd_bytes.push_back(op->fwd_bytes);
    b.head_bwd_bytes.push_back(op->bwd_bytes);
    b.head_tensor_core.push_back(
        op->unit == ops::ComputeUnit::TensorCore ? 1 : 0);
  }
#ifndef NDEBUG
  analysis::assert_batched_invariants(layer, b);
#endif
  return b;
}

}  // namespace

BatchedSignature compile_layer(const model::TransformerConfig& mdl,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t global_batch,
                               const parallel::LayerCost& layer) {
  BatchedSignature b;
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
    b = lower_ops(layer, {&logits, &loss, &embed_gather});
  } else {
    b = lower_ops(layer, {});
  }
  static_cast<BlockScalars&>(b) = block_scalars(mdl, cfg, layer);
  return b;
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
  CostSignature sig;
  static_cast<BatchedSignature&>(sig) =
      compile_layer(mdl, cfg, global_batch, layer);
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
  return bind_system_batched(sig, sig, sys, opts);
}

CostSignature adapt_to_phase(CostSignature sig, ExecutionPhase phase) {
  sig.phase = phase;
  zero(sig.bwd_flops, sig.bwd_bytes, sig.bwd_comm_begin, sig.bwd_comm_count,
       sig.head_bwd_flops, sig.head_bwd_bytes);
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

  if (mdl.vocab > 0) {
    // Every decode step samples from the full vocabulary: the lm_head GEMV
    // re-reads the (e x V/n1) shard, plus the softmax over the logits.
    const double Vshard =
        static_cast<double>(mdl.vocab) / static_cast<double>(cfg.n1);
    const ops::Op logits = ops::forward_only(ops::matmul(
        "lm_head", tokens_per_group, Vshard, static_cast<double>(mdl.embed)));
    const ops::Op soft = ops::forward_only(
        ops::vector_op("softmax", tokens_per_group * Vshard, 5.0, 0.0));
    static_cast<BatchedSignature&>(sig) = lower_ops(layer, {&logits, &soft});
  } else {
    static_cast<BatchedSignature&>(sig) = lower_ops(layer, {});
  }

  static_cast<BlockScalars&>(sig) = block_scalars(mdl, cfg, layer);
  sig.stored_activation_bytes = Bytes(0);
  const double Ld = static_cast<double>(sig.layers_per_stage);
  sig.stage_params = layer.weight_params * Ld;
  // No data-parallel replica group, no optimizer: serving replicas are
  // nd = 1 and the backward dimension does not exist in this phase, so the
  // local microbatch, dp_size, opt_shard and the DP and optimizer traffic
  // keep their SignatureTail defaults (1, 1, 1, 0, 0).

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
