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

std::size_t LayerKeyHash::operator()(const LayerKey& k) const {
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
  return memo_.get(key, [&] {
    return parallel::build_layer(mdl, cfg, key.local_microbatch);
  });
}

std::size_t PlacementCache::KeyHash::operator()(const Key& k) const {
  std::size_t h = 0;
  for (std::int64_t v : k) h = hash_combine(h, static_cast<std::size_t>(v));
  return h;
}

std::shared_ptr<const std::vector<std::array<std::int64_t, 4>>>
PlacementCache::get(const parallel::ParallelConfig& cfg,
                    std::int64_t nvs_domain) {
  return memo_.get({cfg.n1, cfg.n2, cfg.np, cfg.nd, nvs_domain},
                   [&] { return enumerate_placements(cfg, nvs_domain); });
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

std::size_t SignatureKeyHash::operator()(const SignatureKey& k) const {
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
  // Lock order is always signature shard -> layer shard, so the nested
  // acquisition cannot deadlock against LayerCostCache users.
  return memo_.get(signature_key(cfg), [&] {
    const auto layer = layers.get(mdl, cfg, global_batch);
#ifndef NDEBUG
    // Debug builds cross-check each compiled op list against the invariant
    // analyzer, mirroring the single-phase evaluator's hook (once per
    // compile instead of once per evaluation).
    analysis::assert_layer_invariants(
        mdl, cfg, cfg.local_microbatch(global_batch), *layer);
#endif
    return core::compile_signature(mdl, cfg, global_batch, *layer, opts);
  });
}

core::BatchedSignature lower_block(const model::TransformerConfig& mdl,
                                   const parallel::ParallelConfig& cfg,
                                   std::int64_t global_batch) {
  const std::int64_t local = cfg.local_microbatch(global_batch);
  const parallel::LayerCost layer = parallel::build_layer(mdl, cfg, local);
#ifndef NDEBUG
  analysis::assert_layer_invariants(mdl, cfg, local, layer);
#endif
  return core::lower_batched(core::compile_layer(mdl, cfg, global_batch, layer));
}

}  // namespace tfpe::search
