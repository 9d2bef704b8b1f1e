#include "memory/memory_model.hpp"

#include "ops/op_factory.hpp"

namespace tfpe::memory {

MemoryBreakdown compute_memory(const parallel::LayerCost& layer,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t layers_per_stage,
                               std::int64_t in_flight_microbatches) {
  return compute_memory(layer.weight_params, layer.dp_group_includes_tp2,
                        layer.stored_bytes(), cfg, layers_per_stage,
                        in_flight_microbatches);
}

MemoryBreakdown compute_memory(double weight_params,
                               bool dp_group_includes_tp2, Bytes stored_bytes,
                               const parallel::ParallelConfig& cfg,
                               std::int64_t layers_per_stage,
                               std::int64_t in_flight_microbatches) {
  MemoryBreakdown mem;
  const double stage_params =
      weight_params * static_cast<double>(layers_per_stage);
  // ZeRO-1 shards the optimizer states over the data-parallel group; in 2D
  // TP the weights are additionally replicated over n2, so the states shard
  // over nd * n2 (the same group that reduces the weight gradients). ZeRO-3
  // shards the FP16 weights and gradients over the same group too, keeping
  // one layer's worth of gathered weights as working set.
  double shard = static_cast<double>(cfg.nd);
  if (dp_group_includes_tp2) shard *= static_cast<double>(cfg.n2);
  if (cfg.zero == parallel::ZeroStage::kWeights) {
    mem.weights = Bytes(2.0 * (stage_params / shard + weight_params));
    mem.gradients = Bytes(2.0 * (stage_params / shard + weight_params));
  } else {
    mem.weights = Bytes(2.0 * stage_params);
    mem.gradients = Bytes(2.0 * stage_params);
  }
  mem.optimizer = Bytes(12.0 * stage_params / shard);
  mem.activations = stored_bytes * (static_cast<double>(layers_per_stage) *
                                    static_cast<double>(in_flight_microbatches));
  return mem;
}

Bytes kv_cache_bytes(const model::TransformerConfig& mdl, std::int64_t layers,
                     double tokens, std::int64_t tp) {
  const double hkv = static_cast<double>(mdl.kv_heads_or_default());
  const double nt = static_cast<double>(tp);
  const double hkv_local = hkv / nt > 1.0 ? hkv / nt : 1.0;
  const double width = hkv_local * static_cast<double>(mdl.head_dim());
  return Bytes(2.0 * ops::kBytesPerElement * width * tokens *
               static_cast<double>(layers));
}

MemoryBreakdown compute_inference_memory(const parallel::LayerCost& layer,
                                         std::int64_t layers_per_stage,
                                         Bytes kv_cache, Bytes working_set) {
  MemoryBreakdown mem;
  mem.weights = Bytes(2.0 * layer.weight_params *
                      static_cast<double>(layers_per_stage));
  mem.activations = working_set;
  mem.kv_cache = kv_cache;
  return mem;
}

}  // namespace tfpe::memory
