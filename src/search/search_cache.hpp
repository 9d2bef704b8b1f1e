#pragma once
// Concurrent memoization caches for the S3 search (shared by all worker
// threads of one find_optimal call or one run_codesign shape).
//
// build_layer() only reads the placement-independent slice of a
// ParallelConfig — (strategy, n1, n2, nb, ring_attention) plus the local
// microbatch size and, for MoE, the expert-parallel width min(nd, E) — so
// the many (np, nd, m) combinations that share those fields reuse one
// layer (in the engines: one lowered block, see lower_block) instead of
// rebuilding the op list per configuration. enumerate_placements()
// similarly depends only on (n1, n2, np, nd) and the NVS-domain size, so
// PlacementCache builds each frontier once and shares it across the
// interleave/ZeRO/ring expansion axes.
//
// Every cache is a ShardedMemo: a shard's mutex is held across the build
// so each key is constructed exactly once (making the build counters
// deterministic) and readers share immutable values via shared_ptr.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "model/transformer.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::search {

/// The one memo shape every search cache shares: a sharded hash map whose
/// shard mutex is held across the build, so each key is built exactly once
/// (the build counter is deterministic) and readers share the immutable
/// value through shared_ptr. `build()` must return the Value for `key`; it
/// may take other memos' locks, provided no two memos nest in both orders.
template <class Key, class Value, class Hash>
class ShardedMemo {
 public:
  template <class Build>
  std::shared_ptr<const Value> get(const Key& key, Build&& build) {
    Shard& shard = shards_[Hash{}(key) % kShards];
    std::lock_guard lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
    builds_.fetch_add(1, std::memory_order_relaxed);
    auto value = std::make_shared<const Value>(build());
    shard.map.emplace(key, value);
    return value;
  }

  std::size_t builds() const { return builds_.load(); }
  std::size_t hits() const { return hits_.load(); }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, std::shared_ptr<const Value>, Hash> map;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> hits_{0};
};

/// The slice of (model, ParallelConfig, global batch) that build_layer's
/// output depends on — and with it compile_layer's, so it also keys the
/// search engines' lowered blocks (lower_block).
struct LayerKey {
  parallel::TpStrategy strategy = parallel::TpStrategy::TP1D;
  std::int64_t n1 = 1;
  std::int64_t n2 = 1;
  std::int64_t nb = 1;
  std::int64_t local_microbatch = 1;
  std::int64_t moe_ep = 0;  ///< min(nd, experts) for MoE, 0 otherwise.
  bool ring_attention = false;

  bool operator==(const LayerKey&) const = default;
};

LayerKey layer_key(const model::TransformerConfig& mdl,
                   const parallel::ParallelConfig& cfg,
                   std::int64_t global_batch);

struct LayerKeyHash {
  std::size_t operator()(const LayerKey& k) const;
};

class LayerCostCache {
 public:
  /// The LayerCost for cfg, building it on first use. Thread-safe.
  std::shared_ptr<const parallel::LayerCost> get(
      const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
      std::int64_t global_batch);

  std::size_t builds() const { return memo_.builds(); }
  std::size_t hits() const { return memo_.hits(); }

 private:
  ShardedMemo<LayerKey, parallel::LayerCost, LayerKeyHash> memo_;
};

class PlacementCache {
 public:
  /// The non-dominated placements of cfg's (n1, n2, np, nd) on a fast
  /// domain of `nvs_domain` GPUs, enumerating on first use. Thread-safe;
  /// the returned vector is immutable and shared.
  std::shared_ptr<const std::vector<std::array<std::int64_t, 4>>> get(
      const parallel::ParallelConfig& cfg, std::int64_t nvs_domain);

  std::size_t builds() const { return memo_.builds(); }
  std::size_t hits() const { return memo_.hits(); }

 private:
  using Key = std::array<std::int64_t, 5>;  // n1, n2, np, nd, nvs_domain
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  ShardedMemo<Key, std::vector<std::array<std::int64_t, 4>>, KeyHash> memo_;
};

/// The slice of a ParallelConfig that compile_signature's output depends on
/// — a hardware-free key, so one cache instance can be shared across every
/// hw::SystemConfig of a sweep. Excluded on purpose: the NVS placement
/// fields and the interleave factor (signatures are invariant to both; the
/// schedule enters only at placement timing). The key does NOT capture the
/// model, the global batch or the EvalOptions: use one cache per
/// (model, global batch, EvalOptions) tuple, as the search and the sweep
/// engine do. It keys compile_tail's output too (the chain engine's tail
/// memo), since a tail reads only this slice and the block's scalars.
struct SignatureKey {
  parallel::TpStrategy strategy = parallel::TpStrategy::TP1D;
  std::int64_t n1 = 1;
  std::int64_t n2 = 1;
  std::int64_t np = 1;
  std::int64_t nd = 1;
  std::int64_t m = 1;
  std::int64_t nb = 1;
  bool ring_attention = false;
  parallel::ZeroStage zero = parallel::ZeroStage::kOptimizer;

  bool operator==(const SignatureKey&) const = default;
};

SignatureKey signature_key(const parallel::ParallelConfig& cfg);

struct SignatureKeyHash {
  std::size_t operator()(const SignatureKey& k) const;
};

/// Whole CostSignatures (block and tail in one object), for the callers
/// that start from one: the serving planner (its per-shape prefill
/// signature) and the benchmark's traced replay. The search engines keep
/// the two halves apart (lower_block, core::compile_tail) and do not use
/// it.
class SignatureCache {
 public:
  /// The compiled CostSignature for cfg, compiling it on first use (the op
  /// list comes from `layers`, so build_layer reuse across signatures is
  /// still counted there). Thread-safe; the returned signature is immutable
  /// and shared.
  std::shared_ptr<const core::CostSignature> get(
      const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
      std::int64_t global_batch, const core::EvalOptions& opts,
      LayerCostCache& layers);

  std::size_t compiles() const { return memo_.builds(); }
  std::size_t hits() const { return memo_.hits(); }

 private:
  ShardedMemo<SignatureKey, core::CostSignature, SignatureKeyHash> memo_;
};

/// The search engines' shared half of a signature for cfg's LayerKey:
/// build_layer, then compile_layer, then lower_batched. The LayerCost and
/// the AoS records are freed on return; only the SoA block (rows plus
/// BlockScalars) is kept. Debug builds run the op-list invariant hook here
/// (and lower_batched runs the SoA one), once per block.
core::BatchedSignature lower_block(const model::TransformerConfig& mdl,
                                   const parallel::ParallelConfig& cfg,
                                   std::int64_t global_batch);

}  // namespace tfpe::search
