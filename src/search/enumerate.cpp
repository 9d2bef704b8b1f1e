#include "search/enumerate.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace tfpe::search {

using util::divisors;

CandidateTree::CandidateTree(const model::TransformerConfig& mdl,
                             std::int64_t n_gpus,
                             const EnumerationOptions& opts)
    : zero3_(opts.allow_zero3) {
  const std::int64_t b = opts.global_batch;
  const parallel::TpStrategy strategy = opts.strategy;
  const bool summa = strategy == parallel::TpStrategy::Summa2D;
  if (mdl.is_moe() && summa) return;  // MoE is not supported with SUMMA.

  std::vector<std::int64_t> panels{1};
  if (summa) {
    panels.clear();
    for (std::int64_t nb : opts.nb_candidates.empty()
                               ? std::vector<std::int64_t>{1, 2, 4, 8, 16}
                               : opts.nb_candidates) {
      if (mdl.embed % nb == 0 && mdl.hidden % nb == 0) panels.push_back(nb);
    }
  }
  std::vector<std::int64_t> interleave_opts = opts.interleave_candidates;
  if (interleave_opts.empty()) interleave_opts = {1};
  const bool ring_ok = opts.allow_ring_attention &&
                       mdl.attention != model::AttentionKind::kLinear;
  // One list per distinct local batch / stage count, shared by its
  // prefixes.
  const auto slot = [](std::vector<std::vector<std::int64_t>>& lists,
                       std::vector<std::int64_t>& keys, std::int64_t key,
                       const auto& make) {
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it != keys.end()) {
      return static_cast<std::uint32_t>(it - keys.begin());
    }
    keys.push_back(key);
    lists.push_back(make());
    return static_cast<std::uint32_t>(lists.size() - 1);
  };
  std::vector<std::int64_t> m_keys, v_keys;

  for (std::int64_t n1 : divisors(n_gpus)) {
    if (mdl.heads % n1 || mdl.hidden % n1 || mdl.embed % n1) continue;
    if (mdl.kv_heads_or_default() % n1) continue;
    const std::int64_t rem1 = n_gpus / n1;
    for (std::int64_t n2 : divisors(rem1)) {
      if (strategy == parallel::TpStrategy::TP1D && n2 != 1) continue;
      if (mdl.seq_len % (n1 * n2)) continue;
      if (summa && (mdl.embed % n2 || mdl.hidden % n2)) continue;
      const std::int64_t rem2 = rem1 / n2;
      const bool ring = ring_ok && n2 > 1;
      for (std::int64_t np : divisors(rem2)) {
        if (mdl.depth % np) continue;
        const std::int64_t nd = rem2 / np;
        if (b % nd) continue;
        if (mdl.is_moe() &&
            (nd <= mdl.moe_experts ? mdl.moe_experts % nd != 0
                                   : nd % mdl.moe_experts != 0)) {
          continue;
        }
        const std::uint32_t m_list =
            slot(m_lists_, m_keys, b / nd, [&] { return divisors(b / nd); });
        const std::uint32_t v_list = slot(v_lists_, v_keys, np, [&] {
          std::vector<std::int64_t> vs;
          for (std::int64_t v : interleave_opts) {
            if (v < 1) continue;  // never valid
            if (v > 1 && (np <= 1 || (mdl.depth / np) % v != 0)) continue;
            vs.push_back(v);
          }
          return vs;
        });
        const std::size_t per_m =
            v_lists_[v_list].size() * (ring ? 2 : 1) * zero3_stages();
        const std::size_t m_stride = panels.size() * per_m;
        if (m_stride == 0) continue;
        for (std::size_t j = 0; j < panels.size(); ++j) {
          CandidatePrefix p;
          p.cfg.strategy = strategy;
          p.cfg.n1 = n1;
          p.cfg.n2 = n2;
          p.cfg.np = np;
          p.cfg.nd = nd;
          p.cfg.nb = panels[j];
          p.cfg.ring_attention = ring;
          p.first = size_ + j * per_m;
          p.m_stride = m_stride;
          p.m_list = m_list;
          p.v_list = v_list;
          prefixes_.push_back(p);
        }
        size_ += m_lists_[m_list].size() * m_stride;
      }
    }
  }
}

parallel::ParallelConfig CandidateTree::leaf(const CandidatePrefix& p,
                                             std::size_t index) const {
  const std::size_t local = index - p.first;
  std::size_t k = local % p.m_stride;  // position in its m row
  parallel::ParallelConfig cfg = p.cfg;
  cfg.microbatches = microbatches(p)[local / p.m_stride];
  cfg.zero = k % zero3_stages() != 0 ? parallel::ZeroStage::kWeights
                                     : parallel::ZeroStage::kOptimizer;
  k /= zero3_stages();
  const std::size_t rings = p.cfg.ring_attention ? 2 : 1;
  cfg.ring_attention = k % rings != 0;
  cfg.interleave = v_lists_[p.v_list][k / rings];
  return cfg;
}

std::vector<parallel::ParallelConfig> CandidateTree::leaves() const {
  std::vector<parallel::ParallelConfig> out(size_);
  for (const CandidatePrefix& p : prefixes_) {
    for_each_leaf(p, [&](const parallel::ParallelConfig& cfg,
                         std::size_t index) { out[index] = cfg; });
  }
  return out;
}

void PrefixMerge::clear() {
  prefixes_.clear();
  next_ = 0;
  heap_.clear();
  cutoff_ = std::numeric_limits<double>::infinity();
  dropped_ = 0;
}

void PrefixMerge::start() { std::sort(prefixes_.begin(), prefixes_.end()); }

namespace {

/// Min-heap order on (lb, index): std::push_heap keeps the largest first.
bool pops_later(const PendingLeaf& a, const PendingLeaf& c) {
  return a.lb != c.lb ? a.lb > c.lb : a.index > c.index;
}

}  // namespace

void PrefixMerge::push(double lb, std::size_t index, std::uint32_t prefix) {
  if (lb > cutoff_) {
    ++dropped_;
    return;
  }
  heap_.push_back({lb, index, prefix});
  std::push_heap(heap_.begin(), heap_.end(), pops_later);
}

PendingLeaf PrefixMerge::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), pops_later);
  const PendingLeaf top = heap_.back();
  heap_.pop_back();
  return top;
}

std::vector<parallel::ParallelConfig> expand_candidates(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const EnumerationOptions& opts) {
  return CandidateTree(mdl, sys.n_gpus, opts).leaves();
}

std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, std::int64_t nvs_domain) {
  const auto up_to = [&](std::int64_t n) { return divisors(n, nvs_domain); };
  const auto d1 = up_to(cfg.n1), d2 = up_to(cfg.n2), dp = up_to(cfg.np),
             dd = up_to(cfg.nd);
  // Whether entry i of `ds` can step up to the next one with the other
  // three coordinates' product `rest` staying within the budget.
  const auto steps = [&](const std::vector<std::int64_t>& ds, std::size_t i,
                         std::int64_t rest) {
    return i + 1 < ds.size() && ds[i + 1] * rest <= nvs_domain;
  };

  // The feasible placements are closed downward, so one is dominated
  // exactly when some coordinate can step up to its next divisor within the
  // budget (a dominator exceeds it in some coordinate, and that
  // coordinate's next divisor lies between). ad is the largest that fits,
  // so only a1, a2 and ap need the test; the (a1, a2, ap) loops emit the
  // frontier in ascending lexicographic order. Every product divides the
  // GPU count, so none overflows.
  std::vector<std::array<std::int64_t, 4>> keep;
  for (std::size_t i1 = 0; i1 < d1.size(); ++i1) {
    const std::int64_t a1 = d1[i1];
    for (std::size_t i2 = 0; i2 < d2.size(); ++i2) {
      const std::int64_t a2 = d2[i2];
      const std::int64_t p12 = a1 * a2;
      if (p12 > nvs_domain) break;
      std::size_t id = dd.size();  // one past ad; ad shrinks as ap grows
      for (std::size_t ip = 0; ip < dp.size(); ++ip) {
        const std::int64_t ap = dp[ip];
        const std::int64_t p = p12 * ap;
        if (p > nvs_domain) break;
        while (dd[id - 1] * p > nvs_domain) --id;  // dd[0] = 1 always fits
        const std::int64_t ad = dd[id - 1];
        if (steps(d1, i1, a2 * ap * ad) || steps(d2, i2, a1 * ap * ad) ||
            steps(dp, ip, p12 * ad)) {
          continue;
        }
        keep.push_back({a1, a2, ap, ad});
      }
    }
  }
  return keep;
}

}  // namespace tfpe::search
