#include "comm/collective_algorithm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tfpe::comm {

namespace {

/// Bandwidth one member drives at `level` (level 0: its fast-domain port;
/// outer levels: its NIC rail set). Same expression grouping as the legacy
/// effective_*_bandwidth helpers — do not refactor, bitwise-pinned.
BytesPerSec member_bandwidth(const hw::Topology& topo, std::size_t level) {
  const hw::FabricLevel& lvl = topo.levels[level];
  if (level == 0) return lvl.bandwidth * topo.efficiency;
  return lvl.bandwidth * (lvl.rails * topo.efficiency);
}

bool oversubscribed(const hw::FabricLevel& lvl, std::int64_t group_size) {
  return lvl.pod_size > 0 && group_size > lvl.pod_size &&
         lvl.oversubscription > 1;
}

void check_placement(const hw::Topology& topo, const TopoPlacement& p) {
  if (topo.empty()) {
    throw std::invalid_argument("collective_time: empty topology");
  }
  if (topo.depth() > hw::Topology::kMaxDepth) {
    throw std::invalid_argument("collective_time: topology deeper than " +
                                std::to_string(hw::Topology::kMaxDepth));
  }
  std::int64_t prev = 1;
  for (std::size_t i = 0; i < topo.depth(); ++i) {
    if (p.occupancy[i] < prev) {
      throw std::invalid_argument(
          "collective_time: occupancy must be non-decreasing");
    }
    prev = p.occupancy[i];
  }
  if (p.size >= 1 && p.occupancy[topo.depth() - 1] != p.size) {
    throw std::invalid_argument(
        "collective_time: outermost occupancy must equal the group size");
  }
}

}  // namespace

TopoPlacement make_placement(const hw::Topology& topo, GroupPlacement g) {
  TopoPlacement p;
  p.size = g.size;
  std::int64_t occ = std::clamp<std::int64_t>(g.nvs, 1, std::max<std::int64_t>(
                                                            g.size, 1));
  const std::size_t d = topo.depth();
  for (std::size_t i = 0; i < d && i < hw::Topology::kMaxDepth; ++i) {
    if (i > 0) {
      const std::int64_t fan = topo.levels[i].fan_in;
      occ = fan > 0 ? std::min(p.size, occ * fan) : p.size;
    }
    if (i + 1 == d) occ = p.size;  // the top level spans the whole group
    p.occupancy[i] = std::max<std::int64_t>(occ, 1);
  }
  return p;
}

std::optional<std::string> invalid_placement_reason(GroupPlacement g) {
  if (g.size < 1) return "group size must be >= 1";
  if (g.nvs < 1) return "nvs must be >= 1";
  if (g.nvs > g.size) return "nvs exceeds the group size";
  if (g.size % g.nvs != 0) return "nvs must divide the group size";
  return std::nullopt;
}

std::optional<std::string> invalid_placement_reason(const hw::Topology& topo,
                                                    GroupPlacement g) {
  if (auto why = invalid_placement_reason(g)) return why;
  const std::int64_t leaf = topo.leaf_fan_in();
  if (leaf > 0 && g.nvs > leaf) {
    return "nvs exceeds the fabric's leaf fan-in (" + std::to_string(leaf) +
           ")";
  }
  return std::nullopt;
}

Seconds ring_latency(const hw::Topology& topo, const TopoPlacement& p) {
  // Level-i hops of the flat ring: crossing out of a level-(i-1) unit uses
  // a level-i link, so hops_i = units(i-1) - units(i) with units(-1) = g.
  // For the two-level fabric this is exactly the legacy
  //   alpha_s * (g/nvs - 1) + alpha_f * (g - g/nvs).
  const double gsz = static_cast<double>(p.size);
  double units_prev = gsz;
  Seconds total;
  for (std::size_t i = 0; i < topo.depth(); ++i) {
    const double units = gsz / static_cast<double>(p.occupancy[i]);
    total += topo.levels[i].latency * (units_prev - units);
    units_prev = units;
  }
  return total;
}

BytesPerSec effective_bandwidth(const hw::Topology& topo,
                                const TopoPlacement& p) {
  BytesPerSec best = member_bandwidth(topo, 0);
  if (p.occupancy[0] >= p.size) return best;  // fits in one fast domain
  for (std::size_t i = 1; i < topo.depth(); ++i) {
    if (p.occupancy[i - 1] >= p.size) break;  // level not crossed
    const hw::FabricLevel& lvl = topo.levels[i];
    // The group occupies occupancy[i-1] members per level-(i-1) unit, so it
    // can drive that many rail-shares of this level concurrently.
    BytesPerSec bw = static_cast<double>(p.occupancy[i - 1]) *
                     member_bandwidth(topo, i);
    if (oversubscribed(lvl, p.size)) bw /= lvl.oversubscription;
    best = std::min(bw, best);
  }
  return best;
}

Seconds tree_time(const hw::Topology& topo, ops::Collective coll, Bytes bytes,
                  const TopoPlacement& p) {
  if (p.size <= 1 || bytes <= Bytes(0)) return Seconds(0);
  const double gsz = static_cast<double>(p.size);
  // Per-level tree depth: ceil(log2(branching)) where branching is the
  // number of level-(i-1) units one level-i subtree aggregates.
  double units_prev = gsz;
  Seconds latency;
  for (std::size_t i = 0; i < topo.depth(); ++i) {
    const double units = gsz / static_cast<double>(p.occupancy[i]);
    const double branching =
        i == 0 ? static_cast<double>(p.occupancy[0]) : units_prev / units;
    const double depth = branching > 1.0 ? std::ceil(std::log2(branching)) : 0.0;
    latency += topo.levels[i].latency * depth;
    units_prev = units;
  }
  double passes = 1.0;  // Broadcast / Reduce: one pipelined pass
  if (coll == ops::Collective::AllReduce) {
    passes = 2.0;  // reduce up + broadcast down
    latency *= 2.0;
  }
  return latency + passes * (bytes / effective_bandwidth(topo, p));
}

Seconds hierarchical_time(const hw::Topology& topo, ops::Collective coll,
                          Bytes bytes, const TopoPlacement& p) {
  if (p.size <= 1 || bytes <= Bytes(0)) return Seconds(0);
  // One ring phase per crossed level, innermost first. Phase i runs among
  // the k_i = occ_i / occ_{i-1} units inside each level-i unit,
  // rail-parallel across the occ_{i-1} members of a unit, on the 1/occ_{i-1}
  // shard that survives the inner phases (reduce-scatter direction; the
  // all-gather direction is its mirror and costs the same).
  Seconds total;
  double shard = 1.0;
  std::int64_t prev_occ = 1;
  for (std::size_t i = 0; i < topo.depth(); ++i) {
    const std::int64_t occ = p.occupancy[i];
    if (occ <= prev_occ) continue;
    const hw::FabricLevel& lvl = topo.levels[i];
    const double k =
        static_cast<double>(occ) / static_cast<double>(prev_occ);
    BytesPerSec bw = member_bandwidth(topo, i);
    if (i > 0 && oversubscribed(lvl, p.size)) bw /= lvl.oversubscription;
    total += lvl.latency * (k - 1.0) +
             ((k - 1.0) / k) * ((bytes * shard) / bw);
    shard /= k;
    prev_occ = occ;
  }
  if (coll == ops::Collective::AllReduce) total *= 2.0;
  return total;
}

namespace {

class RingAlgorithm final : public CollectiveAlgorithm {
 public:
  const char* name() const override { return "ring"; }
  bool handles(ops::Collective coll) const override {
    return coll != ops::Collective::None &&
           coll != ops::Collective::PointToPoint;
  }
  Seconds time(const hw::Topology& topo, ops::Collective coll, Bytes bytes,
               const TopoPlacement& p) const override {
    const double gsz = static_cast<double>(p.size);
    const double ring_factor = (gsz - 1.0) / gsz;
    double factor = ring_factor;
    Seconds latency = ring_latency(topo, p);
    if (coll == ops::Collective::AllReduce) {
      // Ring AllReduce = ReduceScatter + AllGather.
      factor = 2.0 * ring_factor;
      latency *= 2.0;
    }
    Seconds best = latency + factor * (bytes / effective_bandwidth(topo, p));
    if (topo.enable_ll) {
      // NCCL LL protocol: flag-based synchronization cuts the per-hop
      // latency at the cost of half the payload bandwidth.
      const Seconds ll = latency * topo.ll_latency_scale +
                         factor * (bytes / (effective_bandwidth(topo, p) *
                                            topo.ll_bandwidth_scale));
      best = std::min(best, ll);
    }
    return best;
  }
};

class TreeAlgorithm final : public CollectiveAlgorithm {
 public:
  const char* name() const override { return "tree"; }
  bool handles(ops::Collective coll) const override {
    return coll == ops::Collective::AllReduce ||
           coll == ops::Collective::Broadcast ||
           coll == ops::Collective::Reduce;
  }
  Seconds time(const hw::Topology& topo, ops::Collective coll, Bytes bytes,
               const TopoPlacement& p) const override {
    return tree_time(topo, coll, bytes, p);
  }
};

class HierarchicalAlgorithm final : public CollectiveAlgorithm {
 public:
  const char* name() const override { return "hierarchical"; }
  bool handles(ops::Collective coll) const override {
    return coll == ops::Collective::AllReduce ||
           coll == ops::Collective::AllGather ||
           coll == ops::Collective::ReduceScatter;
  }
  Seconds time(const hw::Topology& topo, ops::Collective coll, Bytes bytes,
               const TopoPlacement& p) const override {
    return hierarchical_time(topo, coll, bytes, p);
  }
};

}  // namespace

const CollectiveAlgorithm& ring_algorithm() {
  static const RingAlgorithm a;
  return a;
}
const CollectiveAlgorithm& tree_algorithm() {
  static const TreeAlgorithm a;
  return a;
}
const CollectiveAlgorithm& hierarchical_algorithm() {
  static const HierarchicalAlgorithm a;
  return a;
}

Seconds collective_time(const hw::Topology& topo, ops::Collective coll,
                        Bytes bytes, const TopoPlacement& p) {
  check_placement(topo, p);
  if (bytes < Bytes(0)) {
    throw std::invalid_argument("collective_time: bytes < 0");
  }
  if (coll == ops::Collective::None || bytes == Bytes(0)) return Seconds(0);

  if (coll == ops::Collective::PointToPoint) {
    // The innermost level both endpoints share; a group that spans no level
    // (size 1) falls through to the outermost link.
    std::size_t level = topo.depth() - 1;
    for (std::size_t i = 0; i < topo.depth(); ++i) {
      if (p.occupancy[i] >= 2) {
        level = i;
        break;
      }
    }
    return topo.levels[level].latency + bytes / member_bandwidth(topo, level);
  }

  if (p.size <= 1) return Seconds(0);

  Seconds best = ring_algorithm().time(topo, coll, bytes, p);
  if (topo.enable_tree && tree_algorithm().handles(coll)) {
    best = std::min(best, tree_algorithm().time(topo, coll, bytes, p));
  }
  if (topo.enable_hierarchical && hierarchical_algorithm().handles(coll)) {
    best = std::min(best, hierarchical_algorithm().time(topo, coll, bytes, p));
  }
  return best;
}

Seconds collective_time(const hw::Topology& topo, ops::Collective coll,
                        Bytes bytes, GroupPlacement g) {
  if (const auto why = invalid_placement_reason(topo, g)) {
    throw std::invalid_argument(
        "collective_time: " + *why + " (size=" + std::to_string(g.size) +
        ", nvs=" + std::to_string(g.nvs) + ")");
  }
  return collective_time(topo, coll, bytes, make_placement(topo, g));
}

void FabricPricer::rebind(const hw::Topology& topo) {
  if (topo.empty()) {
    throw std::invalid_argument("FabricPricer: empty topology");
  }
  if (topo.depth() > hw::Topology::kMaxDepth) {
    throw std::invalid_argument("FabricPricer: topology deeper than " +
                                std::to_string(hw::Topology::kMaxDepth));
  }
  topo_ = &topo;
  depth_ = topo.depth();
  for (std::size_t i = 0; i < depth_; ++i) {
    // The cached value IS member_bandwidth's result — not a refactored
    // expression — so reading it later cannot change any downstream bits.
    member_bw_[i] = member_bandwidth(topo, i);
    latency_[i] = topo.levels[i].latency;
  }
  enable_tree_ = topo.enable_tree;
  enable_ll_ = topo.enable_ll;
  enable_hier_ = topo.enable_hierarchical;
  ll_latency_scale_ = topo.ll_latency_scale;
  ll_bandwidth_scale_ = topo.ll_bandwidth_scale;
  place_memo_.clear();
  place_keys_.clear();
}

FabricPricer::Placed FabricPricer::place(GroupPlacement g) const {
  return place_ref(g);
}

const FabricPricer::Placed& FabricPricer::place_ref(GroupPlacement g) const {
  if (!bound()) throw std::logic_error("FabricPricer::place: unbound pricer");
  for (std::size_t i = 0; i < place_keys_.size(); ++i) {
    if (place_keys_[i][0] == g.size && place_keys_[i][1] == g.nvs) {
      return place_memo_[i];
    }
  }
  if (const auto why = invalid_placement_reason(*topo_, g)) {
    // Same rejection (and message) as the validating collective_time
    // overload this fast path replaces.
    throw std::invalid_argument(
        "collective_time: " + *why + " (size=" + std::to_string(g.size) +
        ", nvs=" + std::to_string(g.nvs) + ")");
  }
  place_memo_.push_back(place_topo(make_placement(*topo_, g)));
  place_keys_.push_back({g.size, g.nvs});
  return place_memo_.back();
}

FabricPricer::Placed FabricPricer::place_topo(const TopoPlacement& p) const {
  if (!bound()) throw std::logic_error("FabricPricer::place: unbound pricer");
  const hw::Topology& topo = *topo_;
  check_placement(topo, p);
  Placed pl;
  pl.p = p;

  // Flat ring (every collective): the exact sub-results RingAlgorithm::time
  // derives per call, computed by the same functions.
  const double gsz = static_cast<double>(p.size);
  pl.ring_factor = (gsz - 1.0) / gsz;
  pl.ar_factor = 2.0 * pl.ring_factor;
  pl.ring_lat = ring_latency(topo, p);
  pl.ar_ring_lat = pl.ring_lat * 2.0;  // the walk's `latency *= 2.0`
  pl.eff_bw = effective_bandwidth(topo, p);
  if (enable_ll_) {
    pl.ll_lat = pl.ring_lat * ll_latency_scale_;
    pl.ar_ll_lat = pl.ar_ring_lat * ll_latency_scale_;
    pl.eff_ll_bw = pl.eff_bw * ll_bandwidth_scale_;
  }

  if (enable_tree_) {
    // tree_time's latency accumulation, verbatim.
    double units_prev = gsz;
    Seconds latency;
    for (std::size_t i = 0; i < depth_; ++i) {
      const double units = gsz / static_cast<double>(p.occupancy[i]);
      const double branching =
          i == 0 ? static_cast<double>(p.occupancy[0]) : units_prev / units;
      const double depth =
          branching > 1.0 ? std::ceil(std::log2(branching)) : 0.0;
      latency += topo.levels[i].latency * depth;
      units_prev = units;
    }
    pl.tree_lat = latency;
    pl.ar_tree_lat = latency * 2.0;
  }

  if (enable_hier_) {
    // hierarchical_time's per-phase pure terms: the shard entering each
    // phase, the (oversubscription-adjusted) bandwidth, and the latency /
    // (k-1)/k products — bytes enters only through (bytes * shard) / bw.
    double shard = 1.0;
    std::int64_t prev_occ = 1;
    for (std::size_t i = 0; i < depth_; ++i) {
      const std::int64_t occ = p.occupancy[i];
      if (occ <= prev_occ) continue;
      const hw::FabricLevel& lvl = topo.levels[i];
      const double k = static_cast<double>(occ) / static_cast<double>(prev_occ);
      BytesPerSec bw = member_bandwidth(topo, i);
      if (i > 0 && oversubscribed(lvl, p.size)) bw /= lvl.oversubscription;
      Placed::HierPhase& h = pl.hier[pl.hier_phases++];
      h.lat_term = lvl.latency * (k - 1.0);
      h.coef = (k - 1.0) / k;
      h.shard = shard;
      h.bw = bw;
      shard /= k;
      prev_occ = occ;
    }
  }

  // P2P: the innermost level both endpoints share (collective_time's scan).
  std::size_t level = depth_ - 1;
  for (std::size_t i = 0; i < depth_; ++i) {
    if (p.occupancy[i] >= 2) {
      level = i;
      break;
    }
  }
  pl.p2p_lat = latency_[level];
  pl.p2p_bw = member_bw_[level];
  return pl;
}

Seconds FabricPricer::price(ops::Collective coll, Bytes bytes,
                            const Placed& pl) const {
  // Mirror of the collective_time dispatcher over the cached sub-results —
  // same branches, same expression groupings, same min order.
  if (bytes < Bytes(0)) {
    throw std::invalid_argument("collective_time: bytes < 0");
  }
  if (coll == ops::Collective::None || bytes == Bytes(0)) return Seconds(0);
  if (coll == ops::Collective::PointToPoint) {
    return pl.p2p_lat + bytes / pl.p2p_bw;
  }
  if (pl.p.size <= 1) return Seconds(0);

  const bool ar = coll == ops::Collective::AllReduce;
  const double factor = ar ? pl.ar_factor : pl.ring_factor;
  Seconds best =
      (ar ? pl.ar_ring_lat : pl.ring_lat) + factor * (bytes / pl.eff_bw);
  if (enable_ll_) {
    const Seconds ll =
        (ar ? pl.ar_ll_lat : pl.ll_lat) + factor * (bytes / pl.eff_ll_bw);
    best = std::min(best, ll);
  }
  if (enable_tree_ &&
      (ar || coll == ops::Collective::Broadcast ||
       coll == ops::Collective::Reduce)) {
    const double passes = ar ? 2.0 : 1.0;
    const Seconds t =
        (ar ? pl.ar_tree_lat : pl.tree_lat) + passes * (bytes / pl.eff_bw);
    best = std::min(best, t);
  }
  if (enable_hier_ &&
      (ar || coll == ops::Collective::AllGather ||
       coll == ops::Collective::ReduceScatter)) {
    Seconds total;
    for (std::size_t j = 0; j < pl.hier_phases; ++j) {
      const Placed::HierPhase& h = pl.hier[j];
      total += h.lat_term + h.coef * ((bytes * h.shard) / h.bw);
    }
    if (ar) total *= 2.0;
    best = std::min(best, total);
  }
  return best;
}

Seconds collective_time_floor(const hw::Topology& topo,
                              std::int64_t group_size, Bytes bytes) {
  if (topo.empty() || group_size <= 1 || bytes <= Bytes(0)) return Seconds(0);
  const double g = static_cast<double>(group_size);

  // Per-member ingress floor: every algorithm must deliver (g-1)/g * V to
  // each member through the sum of its link bandwidths (mediant inequality;
  // shared NICs across outer levels only make the true time larger).
  BytesPerSec member_sum = member_bandwidth(topo, 0);
  for (std::size_t i = 1; i < topo.depth(); ++i) {
    member_sum += member_bandwidth(topo, i);
  }
  Seconds floor = ((g - 1.0) / g) * (bytes / member_sum);

  // Necessarily-crossed levels: a group larger than one level-(i-1) unit
  // must move the non-resident fraction of V into each unit through its
  // aggregate uplink (at most cap_{i-1} members driving their rails),
  // whatever the algorithm.
  std::int64_t cap = topo.levels[0].fan_in;
  for (std::size_t i = 1; i < topo.depth(); ++i) {
    if (cap <= 0) break;  // unbounded level below: never necessarily crossed
    if (group_size <= cap) break;
    const hw::FabricLevel& lvl = topo.levels[i];
    BytesPerSec uplink = static_cast<double>(cap) * member_bandwidth(topo, i);
    if (oversubscribed(lvl, group_size)) uplink /= lvl.oversubscription;
    const double non_resident = 1.0 - static_cast<double>(cap) / g;
    floor = std::max(floor, non_resident * (bytes / uplink));
    if (lvl.fan_in <= 0) {
      cap = 0;
    } else {
      cap *= lvl.fan_in;
    }
  }
  return floor;
}

BytesPerSec best_p2p_bandwidth(const hw::Topology& topo) {
  BytesPerSec best = member_bandwidth(topo, 0);
  for (std::size_t i = 1; i < topo.depth(); ++i) {
    best = std::max(best, member_bandwidth(topo, i));
  }
  return best;
}

}  // namespace tfpe::comm
