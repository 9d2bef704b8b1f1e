#pragma once
// HBM memory-consumption model (paper §III S2 "Memory Used on HBM").
//
// Mixed-precision training with a distributed Adam optimizer:
//   * weights:          2 bytes / resident parameter (FP16)
//   * weight gradients: 2 bytes / resident parameter
//   * optimizer states: 12 bytes / parameter, sharded over the nd
//     data-parallel group (FP32 master weights + two Adam moments, ZeRO-1)
//   * activations: per-op stored tensors for every in-flight microbatch;
//     the 1F1B schedule keeps min(m, np) microbatches resident, and
//     FlashAttention recomputation already removed the l x l logits.

#include <cstdint>

#include "hw/system.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::memory {

struct MemoryBreakdown {
  Bytes weights;
  Bytes gradients;
  Bytes optimizer;
  Bytes activations;
  /// K/V token cache (inference phases). Always Bytes(0) for training, so
  /// adding the term kept every training total bitwise-unchanged.
  Bytes kv_cache;

  Bytes total() const {
    return weights + gradients + optimizer + activations + kv_cache;
  }
};

/// Memory resident on one GPU for `layers_per_stage` blocks of the given
/// per-block cost, with `in_flight` microbatches of activations.
MemoryBreakdown compute_memory(const parallel::LayerCost& layer,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t layers_per_stage,
                               std::int64_t in_flight_microbatches);

/// The same breakdown from the three per-block quantities it reads
/// (weight_params, dp_group_includes_tp2, stored_bytes()), for callers that
/// keep a layer's scalars but not its op list.
MemoryBreakdown compute_memory(double weight_params,
                               bool dp_group_includes_tp2, Bytes stored_bytes,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t layers_per_stage,
                               std::int64_t in_flight_microbatches);

/// Per-GPU K/V cache bytes for `tokens` cached tokens of one sequence over
/// `layers` blocks: 2 (K and V) x kv_heads x head_dim x tokens x 2 B/elem
/// per layer, with the kv_heads sharded over tp while tp <= kv_heads and
/// replicated beyond (grouped-query attention).
Bytes kv_cache_bytes(const model::TransformerConfig& mdl, std::int64_t layers,
                     double tokens, std::int64_t tp);

/// Inference-phase residency: the optimizer/gradient state of the training
/// breakdown is replaced by the K/V cache, and `working_set` bounds the
/// transient activation buffers (no stored-for-backward tensors exist).
MemoryBreakdown compute_inference_memory(const parallel::LayerCost& layer,
                                         std::int64_t layers_per_stage,
                                         Bytes kv_cache, Bytes working_set);

}  // namespace tfpe::memory
