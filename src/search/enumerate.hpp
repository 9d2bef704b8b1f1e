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
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::search {

struct EnumerationOptions {
  parallel::TpStrategy strategy = parallel::TpStrategy::TP1D;
  std::int64_t global_batch = 4096;

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
    return v_lists_[p.v_list].size() * groups_per_m(p);
  }
  /// ZeRO stages per (m, interleave, ring): 2 when ZeRO-3 is searched,
  /// else 1.
  std::size_t zero3_stages() const { return zero3_ ? 2 : 1; }
  /// (ring, ZeRO stage) leaf groups of `p` per microbatch count.
  std::size_t groups_per_m(const CandidatePrefix& p) const {
    return (p.cfg.ring_attention ? 2 : 1) * zero3_stages();
  }

  /// The leaf of `p` at flattened `index`, which must be one of p's.
  parallel::ParallelConfig leaf(const CandidatePrefix& p,
                                std::size_t index) const;
  /// Every leaf at its flattened index (what expand_candidates returns).
  std::vector<parallel::ParallelConfig> leaves() const;

  /// The (m, ring, ZeRO stage) group of leaf `index` of `p`: m position *
  /// groups_per_m(p) + ring * zero3_stages() + stage. A group's leaves
  /// differ only in the interleave, which no memory floor reads.
  std::size_t group_of(const CandidatePrefix& p, std::size_t index) const {
    const std::size_t local = index - p.first;
    return local / p.m_stride * groups_per_m(p) +
           local % p.m_stride % groups_per_m(p);
  }

  /// f(index) for every leaf of `p`, m-major in index order.
  template <class F>
  void for_each_index(const CandidatePrefix& p, F&& f) const {
    const std::size_t per_m = leaves_per_m(p);
    std::size_t row = p.first;
    for (std::size_t i = 0; i < microbatches(p).size(); ++i) {
      for (std::size_t index = row; index < row + per_m; ++index) f(index);
      row += p.m_stride;
    }
  }

  /// f(cfg, index) for every leaf of `p`, m-major in index order.
  template <class F>
  void for_each_leaf(const CandidatePrefix& p, F&& f) const {
    for_each_index(p, [&](std::size_t index) { f(leaf(p, index), index); });
  }

 private:
  std::vector<CandidatePrefix> prefixes_;
  std::vector<std::vector<std::int64_t>> m_lists_;
  std::vector<std::vector<std::int64_t>> v_lists_;
  std::size_t size_ = 0;
  bool zero3_ = false;
};

/// A leaf awaiting evaluation: its bound, flattened index and prefix.
struct PendingLeaf {
  double lb = 0;
  std::size_t index = 0;
  std::uint32_t prefix = 0;
};

/// The scan order both engines share: the leaves of a CandidateTree in
/// (lb, index) order, as one sort of every leaf would give, with each
/// prefix expanded only when a leaf of it could come next. A prefix carries
/// a floor <= the lb of each of its leaves (core::prefix_time_floor). pop()
/// expands a prefix while its floor is <= both the cutoff and the smallest
/// pending lb, so a leaf that ties the top on lb is in the heap before the
/// tie is broken by index, and a leaf with lb <= the cutoff is never left
/// behind in an unexpanded prefix. A prefix whose floor stays above the
/// cutoff is never expanded. The cutoffs passed to pop() must never
/// increase (each is an achieved time: an incumbent, or a k-th best time),
/// so a leaf pushed with its lb above the current cutoff can never be
/// popped: it is counted, not kept.
class PrefixMerge {
 public:
  /// Start over with no prefix and no leaf (capacity kept).
  void clear();
  /// Add prefix `p` (a position in CandidateTree::prefixes()) with floor
  /// `floor`. Add every prefix before the first pop.
  void add(std::uint32_t p, double floor) { prefixes_.emplace_back(floor, p); }
  /// Order the added prefixes by (floor, position).
  void start();
  /// Add a leaf of the prefix being expanded.
  void push(double lb, std::size_t index, std::uint32_t prefix);

  /// Pop the next leaf into `out` if its lb is <= `cutoff`, first calling
  /// expand(p) (which push()es p's leaves) for each prefix due. False when
  /// no leaf at or below the cutoff is left.
  template <class Expand>
  bool pop(double cutoff, Expand&& expand, PendingLeaf& out) {
    cutoff_ = cutoff;
    while (next_ < prefixes_.size() && prefixes_[next_].first <= cutoff &&
           (heap_.empty() || prefixes_[next_].first <= heap_.front().lb)) {
      expand(prefixes_[next_++].second);
    }
    if (heap_.empty() || heap_.front().lb > cutoff) return false;
    out = pop_top();
    return true;
  }
  /// Leaves pushed and not popped, kept or not.
  std::size_t unpopped() const { return heap_.size() + dropped_; }
  /// Prefixes never expanded, as (floor, position) in expansion order.
  std::span<const std::pair<double, std::uint32_t>> unexpanded() const {
    return std::span(prefixes_).subspan(next_);
  }

 private:
  PendingLeaf pop_top();

  std::vector<std::pair<double, std::uint32_t>> prefixes_;
  std::size_t next_ = 0;  ///< first unexpanded entry of prefixes_
  std::vector<PendingLeaf> heap_;
  double cutoff_ = std::numeric_limits<double>::infinity();  ///< last pop's
  std::size_t dropped_ = 0;  ///< leaves pushed above the cutoff
};

/// The candidate parallelizations find_optimal scans: the CandidateTree's
/// leaves at their indices, i.e. the parallelization factorizations
/// expanded by the interleave / ZeRO-3 / ring-attention axes (placement
/// fields left at 1). Depends on the SYSTEM only through its GPU count,
/// never on the GPU type or NVS domain size — a hardware sweep at fixed
/// scale enumerates once and reuses the list for every grid point. It does
/// depend on the MODEL shape (divisibility of heads/hidden/depth/seq_len,
/// GQA and MoE widths, the interleave filter on depth/np), so a list
/// shared across architectures would have to key on the full (shape, GPU
/// count) pair; run_codesign builds one per shape and GPU count.
std::vector<parallel::ParallelConfig> expand_candidates(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const EnumerationOptions& opts);

/// The non-dominated placements (nvs1, nvs2, nvsp, nvsd) for a
/// configuration on a fast domain of `nvs_domain` GPUs, in ascending
/// lexicographic order. Every returned placement satisfies nvs_i | n_i and
/// product <= nvs_domain, and is maximal: no other such placement is
/// component-wise >= it (more fast-domain GPUs for a group never hurts in
/// the time model). Empty when nvs_domain < 1.
std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, std::int64_t nvs_domain);

}  // namespace tfpe::search
