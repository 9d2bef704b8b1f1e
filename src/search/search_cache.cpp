#include "search/search_cache.hpp"

#include <algorithm>

#include "analysis/invariants.hpp"
#include "search/enumerate.hpp"

namespace tfpe::search {

namespace {

std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

LayerKey layer_key(const model::TransformerConfig& mdl,
                   const parallel::ParallelConfig& cfg,
                   std::int64_t global_batch) {
  LayerKey k;
  k.strategy = cfg.strategy;
  k.n1 = cfg.n1;
  k.n2 = cfg.n2;
  k.nb = cfg.nb;
  k.local_microbatch = cfg.local_microbatch(global_batch);
  k.moe_ep = mdl.is_moe() ? std::min(cfg.nd, mdl.moe_experts) : 0;
  k.ring_attention = cfg.ring_attention;
  return k;
}

std::size_t LayerCostCache::KeyHash::operator()(const LayerKey& k) const {
  std::size_t h = static_cast<std::size_t>(k.strategy);
  h = hash_combine(h, static_cast<std::size_t>(k.n1));
  h = hash_combine(h, static_cast<std::size_t>(k.n2));
  h = hash_combine(h, static_cast<std::size_t>(k.nb));
  h = hash_combine(h, static_cast<std::size_t>(k.local_microbatch));
  h = hash_combine(h, static_cast<std::size_t>(k.moe_ep));
  h = hash_combine(h, static_cast<std::size_t>(k.ring_attention));
  return h;
}

std::shared_ptr<const parallel::LayerCost> LayerCostCache::get(
    const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
    std::int64_t global_batch) {
  const LayerKey key = layer_key(mdl, cfg, global_batch);
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  builds_.fetch_add(1, std::memory_order_relaxed);
  auto layer = std::make_shared<const parallel::LayerCost>(
      parallel::build_layer(mdl, cfg, key.local_microbatch));
  shard.map.emplace(key, layer);
  return layer;
}

std::size_t PlacementCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = 0;
  for (std::int64_t v : k) h = hash_combine(h, static_cast<std::size_t>(v));
  return h;
}

std::shared_ptr<const std::vector<std::array<std::int64_t, 4>>>
PlacementCache::get(const parallel::ParallelConfig& cfg,
                    std::int64_t nvs_domain) {
  const Key key{cfg.n1, cfg.n2, cfg.np, cfg.nd, nvs_domain};
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  builds_.fetch_add(1, std::memory_order_relaxed);
  auto placements =
      std::make_shared<const std::vector<std::array<std::int64_t, 4>>>(
          enumerate_placements(cfg, nvs_domain));
  shard.map.emplace(key, placements);
  return placements;
}

SignatureKey signature_key(const parallel::ParallelConfig& cfg) {
  SignatureKey k;
  k.strategy = cfg.strategy;
  k.n1 = cfg.n1;
  k.n2 = cfg.n2;
  k.np = cfg.np;
  k.nd = cfg.nd;
  k.m = cfg.microbatches;
  k.nb = cfg.nb;
  k.ring_attention = cfg.ring_attention;
  k.zero = cfg.zero;
  return k;
}

std::size_t SignatureCache::KeyHash::operator()(const SignatureKey& k) const {
  return signature_key_hash(k);
}

std::size_t signature_key_hash(const SignatureKey& k) {
  std::size_t h = static_cast<std::size_t>(k.strategy);
  h = hash_combine(h, static_cast<std::size_t>(k.n1));
  h = hash_combine(h, static_cast<std::size_t>(k.n2));
  h = hash_combine(h, static_cast<std::size_t>(k.np));
  h = hash_combine(h, static_cast<std::size_t>(k.nd));
  h = hash_combine(h, static_cast<std::size_t>(k.m));
  h = hash_combine(h, static_cast<std::size_t>(k.nb));
  h = hash_combine(h, static_cast<std::size_t>(k.ring_attention));
  h = hash_combine(h, static_cast<std::size_t>(k.zero));
  return h;
}

std::shared_ptr<const core::CostSignature> SignatureCache::get(
    const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
    std::int64_t global_batch, const core::EvalOptions& opts,
    LayerCostCache& layers) {
  const SignatureKey key = signature_key(cfg);
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Lock order is always signature shard -> layer shard, so the nested
  // acquisition cannot deadlock against LayerCostCache users.
  auto sig = std::make_shared<const core::CostSignature>(
      compile(mdl, cfg, global_batch, opts, layers));
  shard.map.emplace(key, sig);
  return sig;
}

core::CostSignature SignatureCache::compile(
    const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
    std::int64_t global_batch, const core::EvalOptions& opts,
    LayerCostCache& layers) {
  compiles_.fetch_add(1, std::memory_order_relaxed);
  const auto layer = layers.get(mdl, cfg, global_batch);
#ifndef NDEBUG
  // Debug builds cross-check each compiled op list against the invariant
  // analyzer, mirroring the single-phase evaluator's hook (once per
  // compile instead of once per evaluation).
  analysis::assert_layer_invariants(mdl, cfg, cfg.local_microbatch(global_batch),
                                    *layer);
#endif
  return core::compile_signature(mdl, cfg, global_batch, *layer, opts);
}

std::shared_ptr<const core::BatchedSignature> BatchedCache::get(
    const std::shared_ptr<const core::CostSignature>& sig) {
  const core::CostSignature* key = sig.get();
  Shard& shard = shards_[std::hash<const core::CostSignature*>{}(key) % kShards];
  std::lock_guard lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  lowers_.fetch_add(1, std::memory_order_relaxed);
  auto lowered = std::make_shared<const core::BatchedSignature>(
      core::lower_batched(*sig));
  shard.map.emplace(key, lowered);
  return lowered;
}

}  // namespace tfpe::search
