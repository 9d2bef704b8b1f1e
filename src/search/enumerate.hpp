#pragma once
// Configuration-space enumeration (paper §III S3).
//
// The space is the Cartesian product of
//   1) parallelization factorizations n = n1*n2*np*nd with microbatch count
//      m and SUMMA panel count nb, filtered by divisibility constraints,
//      expanded by the interleave / ring-attention / ZeRO-3 extension axes,
//      and
//   2) GPU-placement assignments (nvs1, nvs2, nvsp, nvsd) of each group onto
//      the fast domain, with each nvs_i dividing n_i and the product bounded
//      by the NVS domain size.
//
// The first part is a tree: strategy -> n1 -> n2 -> np -> nd -> nb, each
// level filtered by the divisibility constraints it fixes, with the
// microbatch counts x interleave x ring x ZeRO as the leaves of an
// (n1, n2, np, nd, nb) prefix. CandidateTree holds the prefixes; its
// leaves in index order (expand_candidates) are the candidate order every
// engine tie-breaks on.

#include <array>
#include <cstddef>
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

  /// Interleaved-pipeline chunk counts to try (extension; {1} = the paper's
  /// non-interleaved schedule; empty -> {1}).
  std::vector<std::int64_t> interleave_candidates{1};
  /// Also try ZeRO-3 weight sharding per configuration (extension).
  bool allow_zero3 = false;
  /// Also try ring attention for n2 > 1 configurations (extension).
  bool allow_ring_attention = false;
};

/// One (n1, n2, np, nd, nb) prefix of the candidate tree. Its leaves are,
/// in index order, each microbatch count m | b/nd, then each interleave,
/// ring attention off/on and ZeRO-1/ZeRO-3, as the options allow. Within
/// one m its leaves are consecutive; consecutive m are m_stride apart (the
/// prefixes of the other panel counts nb interleave between them).
struct CandidatePrefix {
  /// Strategy, n1, n2, np, nd and nb set; m = 1, interleave = 1, ZeRO-1,
  /// and ring_attention set when the prefix's leaves include ring attention
  /// (what core::prefix_time_floor reads).
  parallel::ParallelConfig cfg;
  std::size_t first = 0;     ///< flattened index of the first leaf
  std::size_t m_stride = 0;  ///< index step between consecutive m
  std::uint32_t m_list = 0;  ///< slot of its microbatch-count list
  std::uint32_t v_list = 0;  ///< slot of its interleave list
};

/// The candidate space of one strategy as a prefix tree: every prefix with
/// at least one leaf, in flattened-index order. Depends on the system only
/// through the GPU count. Every leaf of a prefix is valid exactly when the
/// prefix's cfg is: the leaf axes are filtered here.
class CandidateTree {
 public:
  CandidateTree(const model::TransformerConfig& mdl, std::int64_t n_gpus,
                const EnumerationOptions& opts);

  const std::vector<CandidatePrefix>& prefixes() const { return prefixes_; }
  /// Number of leaves (candidates).
  std::size_t size() const { return size_; }
  /// The prefix's microbatch counts (the divisors of b/nd, ascending).
  const std::vector<std::int64_t>& microbatches(
      const CandidatePrefix& p) const {
    return m_lists_[p.m_list];
  }
  /// Leaves of `p` per microbatch count, zero3_stages() per (m, interleave,
  /// ring).
  std::size_t leaves_per_m(const CandidatePrefix& p) const {
    return v_lists_[p.v_list].size() * (p.cfg.ring_attention ? 2 : 1) *
           zero3_stages();
  }
  /// ZeRO stages per leaf group: 2 when ZeRO-3 is searched, else 1.
  std::size_t zero3_stages() const { return zero3_ ? 2 : 1; }

  /// The leaf of `p` at flattened `index`, which must be one of p's.
  parallel::ParallelConfig leaf(const CandidatePrefix& p,
                                std::size_t index) const;

  /// f(cfg, index) for every leaf of `p`, m-major in index order.
  template <class F>
  void for_each_leaf(const CandidatePrefix& p, F&& f) const {
    const std::size_t per_m = leaves_per_m(p);
    std::size_t row = p.first;
    for (std::size_t i = 0; i < microbatches(p).size(); ++i) {
      for (std::size_t index = row; index < row + per_m; ++index) {
        f(leaf(p, index), index);
      }
      row += p.m_stride;
    }
  }

 private:
  std::vector<CandidatePrefix> prefixes_;
  std::vector<std::vector<std::int64_t>> m_lists_;
  std::vector<std::vector<std::int64_t>> v_lists_;
  std::size_t size_ = 0;
  bool zero3_ = false;
};

/// The candidate parallelizations find_optimal scans: the CandidateTree's
/// leaves at their indices, i.e. the parallelization factorizations
/// expanded by the interleave / ZeRO-3 / ring-attention axes (placement
/// fields left at 1). Depends on the SYSTEM only through its GPU count (or
/// opts.n_gpus), never on the GPU type or NVS domain size — a hardware
/// sweep at fixed scale enumerates once and reuses the list for every grid
/// point. It does depend on the MODEL shape (divisibility of
/// heads/hidden/depth/seq_len, GQA and MoE widths, the interleave filter on
/// depth/np), so any memo shared across architectures must key on the full
/// (shape, GPU count) pair — see search::CandidateCache in
/// search/codesign.hpp.
std::vector<parallel::ParallelConfig> expand_candidates(
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
