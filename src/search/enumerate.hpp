#pragma once
// Configuration-space enumeration (paper §III S3).
//
// The space is the Cartesian product of
//   1) parallelization factorizations n = n1*n2*np*nd with microbatch count
//      m and SUMMA panel count nb, filtered by divisibility constraints, and
//   2) GPU-placement assignments (nvs1, nvs2, nvsp, nvsd) of each group onto
//      the fast domain, with each nvs_i dividing n_i and the product bounded
//      by the NVS domain size.

#include <array>
#include <cstdint>
#include <vector>

#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::search {

struct EnumerationOptions {
  parallel::TpStrategy strategy = parallel::TpStrategy::TP1D;
  std::int64_t global_batch = 4096;
  std::int64_t n_gpus = 0;  ///< 0 -> use sys.n_gpus.

  /// SUMMA panel counts to try; empty -> {1, 2, 4, 8, 16} (filtered by
  /// divisibility).
  std::vector<std::int64_t> nb_candidates;
};

/// All valid parallelization configurations (placement fields left at 1).
std::vector<parallel::ParallelConfig> enumerate_parallel(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const EnumerationOptions& opts);

/// All non-dominated placements (nvs1, nvs2, nvsp, nvsd) for a configuration
/// on a fast domain of `nvs_domain` GPUs. A placement is dominated when
/// another placement is component-wise >=. Always contains (1,1,1,1)'s
/// dominator set; every returned placement satisfies nvs_i | n_i and
/// product <= nvs_domain.
std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, std::int64_t nvs_domain);

/// Same against a resolved fabric: the fast-domain budget is the innermost
/// level's fan-in (identical to the nvs_domain overload for the canonical
/// two-level fabric; deeper fabrics do not change the placement space,
/// only how placements are timed).
std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, const hw::Topology& fabric);

}  // namespace tfpe::search
