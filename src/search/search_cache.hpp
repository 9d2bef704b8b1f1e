#pragma once
// Concurrent memoization caches for the S3 search (shared by all worker
// threads of one find_optimal call).
//
// build_layer() only reads the placement-independent slice of a
// ParallelConfig — (strategy, n1, n2, nb, ring_attention) plus the local
// microbatch size and, for MoE, the expert-parallel width min(nd, E) — so
// the many (np, nd, m) combinations that share those fields reuse one
// LayerCost instead of rebuilding the op list per configuration.
// enumerate_placements() similarly depends only on (n1, n2, np, nd) and the
// NVS-domain size, and is shared across the interleave/ZeRO/ring expansion
// axes.
//
// Both caches are sharded hash maps; a shard's mutex is held across the
// build so each key is constructed exactly once (making the build counters
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

/// The slice of (model, ParallelConfig, global batch) that build_layer's
/// output depends on.
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

class LayerCostCache {
 public:
  /// The LayerCost for cfg, building it on first use. Thread-safe.
  std::shared_ptr<const parallel::LayerCost> get(
      const model::TransformerConfig& mdl, const parallel::ParallelConfig& cfg,
      std::int64_t global_batch);

  std::size_t builds() const { return builds_.load(); }
  std::size_t hits() const { return hits_.load(); }

 private:
  struct KeyHash {
    std::size_t operator()(const LayerKey& k) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<LayerKey, std::shared_ptr<const parallel::LayerCost>,
                       KeyHash>
        map;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> hits_{0};
};

class PlacementCache {
 public:
  /// The non-dominated placements of cfg's (n1, n2, np, nd) on a fast
  /// domain of `nvs_domain` GPUs, enumerating on first use. Thread-safe;
  /// the returned vector is immutable and shared.
  std::shared_ptr<const std::vector<std::array<std::int64_t, 4>>> get(
      const parallel::ParallelConfig& cfg, std::int64_t nvs_domain);

  std::size_t builds() const { return builds_.load(); }
  std::size_t hits() const { return hits_.load(); }

 private:
  using Key = std::array<std::int64_t, 5>;  // n1, n2, np, nd, nvs_domain
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<
        Key, std::shared_ptr<const std::vector<std::array<std::int64_t, 4>>>,
        KeyHash>
        map;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> hits_{0};
};

/// The slice of a ParallelConfig that compile_signature's output depends on
/// — a hardware-free key, so one cache instance can be shared across every
/// hw::SystemConfig of a sweep. Excluded on purpose: the NVS placement
/// fields and the interleave factor (signatures are invariant to both; the
/// schedule enters only at time_signature). The key does NOT capture the
/// model, the global batch or the EvalOptions: use one SignatureCache per
/// (model, global batch, EvalOptions) tuple, as the search and the sweep
/// engine do.
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
/// The hash SignatureCache files `k` under.
std::size_t signature_key_hash(const SignatureKey& k);

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

  /// Compile cfg's signature without storing it, counted like a get()
  /// miss. For a caller that knows no other probe will ask for this key, so
  /// a cache entry could never be hit. Thread-safe.
  core::CostSignature compile(const model::TransformerConfig& mdl,
                              const parallel::ParallelConfig& cfg,
                              std::int64_t global_batch,
                              const core::EvalOptions& opts,
                              LayerCostCache& layers);

  std::size_t compiles() const { return compiles_.load(); }
  std::size_t hits() const { return hits_.load(); }

 private:
  struct KeyHash {
    std::size_t operator()(const SignatureKey& k) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<SignatureKey,
                       std::shared_ptr<const core::CostSignature>, KeyHash>
        map;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> compiles_{0};
  std::atomic<std::size_t> hits_{0};
};

/// SoA lowerings of compiled signatures, keyed by the signature's identity
/// (the shared_ptr-owned address handed out by SignatureCache — stable for
/// the cache's lifetime, so the pointer is a valid key). One lowering per
/// signature is shared by every grid point and placement batch of a sweep;
/// the batched timing path pairs one BatchedCache with one SignatureCache.
class BatchedCache {
 public:
  /// The SoA form of `sig`, lowering it on first use. `sig` must stay alive
  /// for the cache's lifetime (guaranteed when it comes from a
  /// SignatureCache sharing the sweep's scope). Thread-safe; the returned
  /// lowering is immutable and shared.
  std::shared_ptr<const core::BatchedSignature> get(
      const std::shared_ptr<const core::CostSignature>& sig);

  std::size_t lowers() const { return lowers_.load(); }
  std::size_t hits() const { return hits_.load(); }

 private:
  struct Shard {
    std::mutex mutex;
    std::unordered_map<const core::CostSignature*,
                       std::shared_ptr<const core::BatchedSignature>>
        map;
  };
  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> lowers_{0};
  std::atomic<std::size_t> hits_{0};
};

}  // namespace tfpe::search
