#pragma once
// Parallelization configuration (paper §III S3 item 1 & 2).
//
// A configuration assigns the n = n1*n2*np*nd GPU grid:
//   n1, n2  tensor-parallel dimensions (n2 == 1 for 1D TP)
//   np      pipeline-parallel stages
//   nd      data-parallel replicas
// plus the microbatch count m, the SUMMA panel count nb, and the placement
// of each group on the fast (NVS) domain: nvs_i GPUs of group i share a
// domain, with nvs1*nvs2*nvsp*nvsd <= nvs_domain.

#include <cstdint>
#include <optional>
#include <string>

#include "hw/system.hpp"
#include "model/transformer.hpp"

namespace tfpe::parallel {

enum class TpStrategy { TP1D, TP2D, Summa2D };

std::string to_string(TpStrategy s);
/// The short key plan files, sweep specs and the CLI use: 1d | 2d | summa.
std::string strategy_key(TpStrategy s);
/// Inverse of strategy_key.
std::optional<TpStrategy> strategy_by_name(const std::string& key);

/// How far the data-parallel group shards training state (paper §V
/// limitations: "weights (and gradients) can also be partitioned using DP at
/// the cost of higher communication").
enum class ZeroStage {
  kOptimizer,  ///< ZeRO-1: optimizer states sharded over DP (paper default).
  kWeights,    ///< ZeRO-3: weights + gradients also sharded; weights are
               ///< re-AllGathered per microbatch.
};

std::string to_string(ZeroStage s);

struct ParallelConfig {
  TpStrategy strategy = TpStrategy::TP1D;
  std::int64_t n1 = 1;
  std::int64_t n2 = 1;
  std::int64_t np = 1;
  std::int64_t nd = 1;
  std::int64_t microbatches = 1;  ///< m
  std::int64_t nb = 1;            ///< SUMMA contraction panels

  /// Virtual pipeline chunks per GPU (interleaved 1F1B, paper §V
  /// limitations). 1 = the paper's non-interleaved schedule. v > 1 divides
  /// the bubble by v and multiplies the PP point-to-point volume by v.
  std::int64_t interleave = 1;

  /// Ring attention (extension): instead of AllGathering K/V across n2
  /// before attending, circulate the K/V shards around the n2 ring in
  /// n2 - 1 steps, each overlapped with the attention compute on the block
  /// already in hand. Same total volume, but only the excess over compute
  /// is exposed. Requires n2 > 1 (2D TP / SUMMA, full or windowed
  /// attention).
  bool ring_attention = false;

  ZeroStage zero = ZeroStage::kOptimizer;

  // NVS-domain placement per group.
  std::int64_t nvs1 = 1;
  std::int64_t nvs2 = 1;
  std::int64_t nvsp = 1;
  std::int64_t nvsd = 1;

  std::int64_t total_gpus() const { return n1 * n2 * np * nd; }
  std::int64_t tp() const { return n1 * n2; }
  std::int64_t placement_product() const { return nvs1 * nvs2 * nvsp * nvsd; }

  /// Per-GPU microbatch size for global batch `b`: b / (nd * m).
  std::int64_t local_microbatch(std::int64_t global_batch) const;

  /// Greedy placement onto a fast domain of `nvs_domain` GPUs: give TP1 the
  /// largest divisor of n1 that fits, then TP2, PP and DP from what is
  /// left. The serving planner places this way; the training search
  /// enumerates placements instead.
  void pack_placement(std::int64_t nvs_domain);

  /// Checks every divisibility/feasibility constraint from S3 against the
  /// model, system and global batch. Returns an explanation when invalid.
  std::optional<std::string> invalid_reason(const model::TransformerConfig& mdl,
                                            const hw::SystemConfig& sys,
                                            std::int64_t global_batch) const;

  /// "1DTP[nt=8] PP=64 DP=32 m=128 nvs=(8,1,1,1)"
  std::string describe() const;
};

}  // namespace tfpe::parallel
