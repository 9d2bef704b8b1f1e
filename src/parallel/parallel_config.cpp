#include "parallel/parallel_config.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace tfpe::parallel {

std::string to_string(ZeroStage s) {
  switch (s) {
    case ZeroStage::kOptimizer: return "ZeRO-1";
    case ZeroStage::kWeights: return "ZeRO-3";
  }
  return "?";
}

std::string to_string(TpStrategy s) {
  switch (s) {
    case TpStrategy::TP1D: return "1D TP";
    case TpStrategy::TP2D: return "2D TP";
    case TpStrategy::Summa2D: return "2D TP SUMMA";
  }
  return "?";
}

namespace {

constexpr std::pair<const char*, TpStrategy> kStrategyKeys[] = {
    {"1d", TpStrategy::TP1D},
    {"2d", TpStrategy::TP2D},
    {"summa", TpStrategy::Summa2D}};

}  // namespace

std::string strategy_key(TpStrategy s) {
  for (const auto& [key, strategy] : kStrategyKeys) {
    if (strategy == s) return key;
  }
  return "?";
}

std::optional<TpStrategy> strategy_by_name(const std::string& key) {
  for (const auto& [name, strategy] : kStrategyKeys) {
    if (key == name) return strategy;
  }
  return std::nullopt;
}

std::int64_t ParallelConfig::local_microbatch(std::int64_t global_batch) const {
  return global_batch / (nd * microbatches);
}

void ParallelConfig::pack_placement(std::int64_t nvs_domain) {
  const auto largest_divisor_leq = [](std::int64_t n, std::int64_t cap) {
    std::int64_t best = 1;
    for (std::int64_t d = 1; d * d <= n; ++d) {
      if (n % d) continue;
      if (d <= cap) best = std::max(best, d);
      if (n / d <= cap) best = std::max(best, n / d);
    }
    return best;
  };
  std::int64_t budget = nvs_domain;
  nvs1 = largest_divisor_leq(n1, budget);
  budget /= nvs1;
  nvs2 = largest_divisor_leq(n2, budget);
  budget /= nvs2;
  nvsp = largest_divisor_leq(np, budget);
  budget /= nvsp;
  nvsd = largest_divisor_leq(nd, budget);
}

std::optional<std::string> ParallelConfig::invalid_reason(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    std::int64_t global_batch) const {
  if (n1 < 1 || n2 < 1 || np < 1 || nd < 1 || microbatches < 1 || nb < 1) {
    return "all grid factors must be >= 1";
  }
  if (strategy == TpStrategy::TP1D && n2 != 1) return "1D TP requires n2 == 1";
  if (mdl.depth % np != 0) return "np must divide model depth";
  if (global_batch % nd != 0) return "nd must divide global batch";
  if ((global_batch / nd) % microbatches != 0) {
    return "m must divide the local batch";
  }
  // Tensor-dimension divisibility: heads/hidden/embed split over n1,
  // sequence split over n1*n2 (1D TP splits l over nt = n1).
  if (mdl.heads % n1 != 0) return "n1 must divide heads";
  if (mdl.kv_heads_or_default() % n1 != 0) return "n1 must divide kv heads";
  if (mdl.hidden % n1 != 0) return "n1 must divide hidden";
  if (mdl.embed % n1 != 0) return "n1 must divide embed";
  if (mdl.seq_len % (n1 * n2) != 0) return "n1*n2 must divide seq_len";
  if (strategy == TpStrategy::Summa2D) {
    if (mdl.embed % n2 != 0) return "n2 must divide embed (SUMMA)";
    if (mdl.hidden % n2 != 0) return "n2 must divide hidden (SUMMA)";
    if (mdl.embed % nb != 0) return "nb must divide the contraction dim";
  } else if (nb != 1) {
    return "nb is only meaningful for SUMMA";
  }
  if (mdl.is_moe()) {
    if (strategy == TpStrategy::Summa2D) {
      return "MoE is not supported with SUMMA";
    }
    // Expert parallelism over the DP group needs aligned sharding.
    if (nd <= mdl.moe_experts ? (mdl.moe_experts % nd != 0)
                              : (nd % mdl.moe_experts != 0)) {
      return "nd and moe_experts must divide each other";
    }
  }
  if (ring_attention) {
    if (strategy == TpStrategy::TP1D || n2 <= 1) {
      return "ring attention requires n2 > 1";
    }
    if (mdl.attention == model::AttentionKind::kLinear) {
      return "ring attention is incompatible with linear attention";
    }
  }
  if (interleave < 1) return "interleave must be >= 1";
  if (interleave > 1) {
    if (np <= 1) return "interleaving requires np > 1";
    if ((mdl.depth / np) % interleave != 0) {
      return "interleave must divide the layers per stage";
    }
  }
  if (total_gpus() > sys.n_gpus) return "configuration exceeds available GPUs";
  // Placement constraints.
  if (n1 % nvs1 != 0 || n2 % nvs2 != 0 || np % nvsp != 0 || nd % nvsd != 0) {
    return "each nvs_i must divide its group size";
  }
  if (placement_product() > sys.nvs_domain) {
    return "placement exceeds the NVS domain";
  }
  return std::nullopt;
}

std::string ParallelConfig::describe() const {
  std::ostringstream os;
  os << to_string(strategy) << " n1=" << n1;
  if (strategy != TpStrategy::TP1D) os << " n2=" << n2;
  os << " PP=" << np << " DP=" << nd << " m=" << microbatches;
  if (strategy == TpStrategy::Summa2D) os << " nb=" << nb;
  if (interleave > 1) os << " v=" << interleave;
  if (zero == ZeroStage::kWeights) os << " ZeRO3";
  if (ring_attention) os << " ringattn";
  os << " nvs=(" << nvs1 << "," << nvs2 << "," << nvsp << "," << nvsd << ")";
  return os.str();
}

}  // namespace tfpe::parallel
