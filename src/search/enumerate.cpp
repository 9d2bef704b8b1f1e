#include "search/enumerate.hpp"

#include <algorithm>
#include <functional>

#include "util/math.hpp"

namespace tfpe::search {

using util::divisors;

std::vector<parallel::ParallelConfig> enumerate_parallel(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const EnumerationOptions& opts) {
  const std::int64_t n = opts.n_gpus > 0 ? opts.n_gpus : sys.n_gpus;
  const std::int64_t b = opts.global_batch;
  std::vector<parallel::ParallelConfig> out;
  if (mdl.is_moe() && opts.strategy == parallel::TpStrategy::Summa2D) {
    return out;  // MoE is not supported with SUMMA.
  }

  std::vector<std::int64_t> nb_candidates = opts.nb_candidates;
  if (opts.strategy != parallel::TpStrategy::Summa2D) {
    nb_candidates = {1};
  } else if (nb_candidates.empty()) {
    nb_candidates = {1, 2, 4, 8, 16};
  }

  for (std::int64_t n1 : divisors(n)) {
    if (mdl.heads % n1 || mdl.hidden % n1 || mdl.embed % n1) continue;
    if (mdl.kv_heads_or_default() % n1) continue;
    const std::int64_t rem1 = n / n1;
    for (std::int64_t n2 : divisors(rem1)) {
      if (opts.strategy == parallel::TpStrategy::TP1D && n2 != 1) continue;
      if (mdl.seq_len % (n1 * n2)) continue;
      if (opts.strategy == parallel::TpStrategy::Summa2D &&
          (mdl.embed % n2 || mdl.hidden % n2)) {
        continue;
      }
      const std::int64_t rem2 = rem1 / n2;
      for (std::int64_t np : divisors(rem2)) {
        if (mdl.depth % np) continue;
        const std::int64_t nd = rem2 / np;
        if (b % nd) continue;
        if (mdl.is_moe() &&
            (nd <= mdl.moe_experts ? mdl.moe_experts % nd != 0
                                   : nd % mdl.moe_experts != 0)) {
          continue;
        }
        const std::int64_t local_batch = b / nd;
        for (std::int64_t m : divisors(local_batch)) {
          for (std::int64_t nb : nb_candidates) {
            if (opts.strategy == parallel::TpStrategy::Summa2D &&
                (mdl.embed % nb || mdl.hidden % nb)) {
              continue;
            }
            parallel::ParallelConfig cfg;
            cfg.strategy = opts.strategy;
            cfg.n1 = n1;
            cfg.n2 = n2;
            cfg.np = np;
            cfg.nd = nd;
            cfg.microbatches = m;
            cfg.nb = nb;
            out.push_back(cfg);
          }
        }
      }
    }
  }
  return out;
}

std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, std::int64_t nvs_domain) {
  auto group_divs = [&](std::int64_t size) {
    std::vector<std::int64_t> ds;
    for (std::int64_t d : divisors(size)) {
      if (d <= nvs_domain) ds.push_back(d);
    }
    return ds;
  };
  const auto d1 = group_divs(cfg.n1);
  const auto d2 = group_divs(cfg.n2);
  const auto dp = group_divs(cfg.np);
  const auto dd = group_divs(cfg.nd);

  std::vector<std::array<std::int64_t, 4>> all;
  for (std::int64_t a1 : d1) {
    if (a1 > nvs_domain) break;
    for (std::int64_t a2 : d2) {
      if (a1 * a2 > nvs_domain) break;
      for (std::int64_t ap : dp) {
        if (a1 * a2 * ap > nvs_domain) break;
        for (std::int64_t ad : dd) {
          if (a1 * a2 * ap * ad > nvs_domain) break;
          all.push_back({a1, a2, ap, ad});
        }
      }
    }
  }
  // Drop dominated placements: more fast-domain GPUs for any group never
  // hurts in the time model. Sort-and-sweep instead of the all-pairs scan:
  // in descending lexicographic order every dominator of c precedes c, and
  // dominance is transitive, so c only needs to be compared against the
  // non-dominated placements kept so far — O(n * frontier) not O(n^2).
  std::sort(all.begin(), all.end(),
            std::greater<std::array<std::int64_t, 4>>());
  std::vector<std::array<std::int64_t, 4>> keep;
  for (const auto& c : all) {
    bool dominated = false;
    for (const auto& o : keep) {
      if (o[0] >= c[0] && o[1] >= c[1] && o[2] >= c[2] && o[3] >= c[3] &&
          (o[0] > c[0] || o[1] > c[1] || o[2] > c[2] || o[3] > c[3])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(c);
  }
  // Restore generation order (ascending lexicographic) so downstream
  // first-wins tie-breaking is unchanged.
  std::sort(keep.begin(), keep.end());
  return keep;
}

std::vector<std::array<std::int64_t, 4>> enumerate_placements(
    const parallel::ParallelConfig& cfg, const hw::Topology& fabric) {
  const std::int64_t domain =
      fabric.empty() ? 1 : std::max<std::int64_t>(1, fabric.levels[0].fan_in);
  return enumerate_placements(cfg, domain);
}

}  // namespace tfpe::search
