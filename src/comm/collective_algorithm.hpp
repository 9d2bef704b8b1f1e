#pragma once
// Topology-aware collective model: latency and effective bandwidth computed
// by walking the fabric levels a group placement spans, plus a pluggable
// CollectiveAlgorithm interface (flat ring, double-binary tree,
// hierarchical two-phase reduce-scatter/all-gather).
//
// For the canonical two-level fabric (hw::two_level_topology) every walk
// reproduces the legacy closed-form comm/collective_model expressions
// BITWISE — the legacy API is a thin adapter over this path, and the golden
// matrix in tests/test_topology.cpp pins the equivalence. Keep the
// floating-point expression groupings here in lockstep with the formulas
// documented in collective_model.hpp.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "comm/collective_model.hpp"
#include "hw/topology.hpp"
#include "ops/op.hpp"

namespace tfpe::comm {

/// Per-level generalization of GroupPlacement: occupancy[i] = members of
/// the group inside one level-i unit (occupancy[0] is the legacy `nvs`).
/// Non-decreasing, and the outermost entry equals the group size — the top
/// level always spans the whole group.
struct TopoPlacement {
  std::int64_t size = 1;
  std::array<std::int64_t, hw::Topology::kMaxDepth> occupancy{};
};

/// Place a legacy (size, nvs) group on a fabric: occupancy[0] is the
/// clamped nvs, intermediate levels fill at their fan-in, and the outermost
/// level spans the whole group regardless of fan-in (sparse placements —
/// nvs below the level-0 fan-in — spill members outward, they do not
/// shrink the group).
TopoPlacement make_placement(const hw::Topology& topo, GroupPlacement g);

/// Why `g` is not a valid group placement (std::nullopt when valid):
/// requires size >= 1, 1 <= nvs <= size, and nvs | size. The clamping
/// helpers tolerate invalid placements; collective_time rejects them.
std::optional<std::string> invalid_placement_reason(GroupPlacement g);

/// Topology-aware validity: the base checks plus `nvs` must not exceed the
/// fabric's bounded leaf fan-in (a valid divisor that overfills the fast
/// domain would price a walk the machine cannot realize). Unbounded or
/// empty fabrics fall back to the base checks. The validating
/// collective_time(topo, ..., GroupPlacement) overload enforces this; the
/// legacy NetworkSpec adapter lifts to an unbounded fabric and therefore
/// only gets the base checks.
std::optional<std::string> invalid_placement_reason(const hw::Topology& topo,
                                                    GroupPlacement g);

/// Latency term of the flat ring: per-level hop counts derived from the
/// occupancy vector (level-i hops = units(i-1) - units(i)).
Seconds ring_latency(const hw::Topology& topo, const TopoPlacement& p);

/// Effective per-ring bandwidth: the minimum over every level the group
/// crosses of that level's aggregate uplink per fast-domain slice, with
/// per-level oversubscription applied.
BytesPerSec effective_bandwidth(const hw::Topology& topo,
                                const TopoPlacement& p);

/// Double-binary-tree time: latency scales with the per-level tree depths
/// instead of the ring length.
Seconds tree_time(const hw::Topology& topo, ops::Collective coll, Bytes bytes,
                  const TopoPlacement& p);

/// Hierarchical two-phase algorithm (NCCL-style): one ring phase per
/// crossed level, innermost first, each operating on the shard that
/// survives the previous phase (rail-parallel across the members of a
/// unit). AllReduce = reduce-scatter up + all-gather down (2x).
Seconds hierarchical_time(const hw::Topology& topo, ops::Collective coll,
                          Bytes bytes, const TopoPlacement& p);

/// Time for one collective over a placed group: the minimum over the
/// algorithms the topology enables (ring always; tree when
/// topo.enable_tree, hierarchical when topo.enable_hierarchical).
/// PointToPoint uses the innermost level both endpoints share.
Seconds collective_time(const hw::Topology& topo, ops::Collective coll,
                        Bytes bytes, const TopoPlacement& p);

/// Convenience: validate `g`, place it on the fabric, and time it.
Seconds collective_time(const hw::Topology& topo, ops::Collective coll,
                        Bytes bytes, GroupPlacement g);

/// One collective algorithm: a strategy the dispatcher can price for the
/// collectives it handles. Implementations are stateless singletons.
class CollectiveAlgorithm {
 public:
  virtual ~CollectiveAlgorithm() = default;
  virtual const char* name() const = 0;
  virtual bool handles(ops::Collective coll) const = 0;
  virtual Seconds time(const hw::Topology& topo, ops::Collective coll,
                       Bytes bytes, const TopoPlacement& p) const = 0;
};

const CollectiveAlgorithm& ring_algorithm();          ///< All collectives.
const CollectiveAlgorithm& tree_algorithm();          ///< AR / Bcast / Reduce.
const CollectiveAlgorithm& hierarchical_algorithm();  ///< AR / AG / RS.

/// Repeated-pricing fast path over one fabric: precomputes every pure,
/// bytes-independent sub-result a collective_time walk derives — per-level
/// member bandwidths, and per placed group the ring latency / effective
/// bandwidth / LL products / tree latency / hierarchical phase terms / P2P
/// level — so pricing many volumes against few placements costs a handful
/// of flops per call instead of a fabric walk.
///
/// BITWISE CONTRACT: price() evaluates the same expressions on the same
/// operands in the same grouping as collective_time(topo, coll, bytes, g);
/// every cached value is itself produced by the identical expression the
/// uncached walk computes, so the results are bit-for-bit equal (pinned by
/// the fuzz property in tests/test_signature.cpp). Keep place()/price() in
/// FP lockstep with ring_latency/effective_bandwidth/tree_time/
/// hierarchical_time and the collective_time dispatcher above.
///
/// The pricer holds a REFERENCE to the topology; it must not outlive it.
/// Immutable after construction (rebind() excepted) — any number of
/// threads may share one. Construction is allocation-free.
class FabricPricer {
 public:
  FabricPricer() = default;  ///< unbound; rebind() before use.
  explicit FabricPricer(const hw::Topology& topo) { rebind(topo); }

  /// Re-derive the per-level products from `topo` (e.g. the next point of a
  /// sweep chain). References the new topology from here on.
  void rebind(const hw::Topology& topo);

  bool bound() const { return topo_ != nullptr; }
  const hw::Topology& fabric() const { return *topo_; }

  /// A validated, pre-walked group placement: everything price() needs that
  /// does not depend on the volume. Valid only against the pricer that
  /// built it, until its next rebind().
  struct Placed {
    TopoPlacement p;
    double ring_factor = 0;  ///< (g-1)/g
    double ar_factor = 0;    ///< 2 * ring_factor (AllReduce = RS + AG)
    Seconds ring_lat, ar_ring_lat;       ///< flat-ring latency, AR-doubled
    BytesPerSec eff_bw;                  ///< effective_bandwidth(topo, p)
    Seconds ll_lat, ar_ll_lat;           ///< ring latencies * ll_latency_scale
    BytesPerSec eff_ll_bw;               ///< eff_bw * ll_bandwidth_scale
    Seconds tree_lat, ar_tree_lat;       ///< tree latency sum, AR-doubled
    /// Hierarchical phases, innermost first (one per crossed level):
    /// lat_term = lvl.latency * (k-1); coef = (k-1)/k; the shard entering
    /// the phase; the (oversubscription-adjusted) per-member bandwidth.
    struct HierPhase {
      Seconds lat_term;
      double coef = 0, shard = 1;
      BytesPerSec bw;
    };
    std::array<HierPhase, hw::Topology::kMaxDepth> hier{};
    std::size_t hier_phases = 0;
    Seconds p2p_lat;    ///< innermost shared level's latency
    BytesPerSec p2p_bw; ///< its member bandwidth
  };

  /// Validate `g` against the fabric (same checks and exception as the
  /// validating collective_time overload), place it, and pre-walk it.
  Placed place(GroupPlacement g) const;
  /// Memoized place() with a STABLE reference return: the Placed lives in
  /// the pricer's memo (a deque, so references survive later insertions)
  /// until the next rebind. The batch kernel keeps pointers to these
  /// instead of copying the struct once per (candidate, group, column).
  const Placed& place_ref(GroupPlacement g) const;
  /// Pre-walk an already-built placement (check_placement still applies).
  Placed place_topo(const TopoPlacement& p) const;

  /// collective_time(fabric(), coll, bytes, pl.p), bit for bit, from the
  /// cached sub-results. Throws on bytes < 0 like the walk.
  Seconds price(ops::Collective coll, Bytes bytes, const Placed& pl) const;

 private:
  const hw::Topology* topo_ = nullptr;
  std::size_t depth_ = 0;
  std::array<BytesPerSec, hw::Topology::kMaxDepth> member_bw_{};
  std::array<Seconds, hw::Topology::kMaxDepth> latency_{};
  bool enable_tree_ = false, enable_ll_ = false, enable_hier_ = false;
  double ll_latency_scale_ = 0, ll_bandwidth_scale_ = 0;
  /// place() memo, cleared on rebind: one validated walk per distinct
  /// (size, nvs) against the current fabric — across the candidates of one
  /// grid point the same group shapes recur hundreds of times. Entries are
  /// the walk's exact output, so a memo hit returns the same bits. Only
  /// valid placements are cached (rejections re-walk and re-throw). The
  /// memo makes place() non-reentrant: a pricer must not be shared by
  /// concurrent callers (each sweep chain owns one).
  mutable std::deque<Placed> place_memo_;
  /// (size, nvs) of each place_memo_ entry, same order: the lookup scans
  /// these packed keys instead of striding over the large Placed records.
  mutable std::vector<std::array<std::int64_t, 2>> place_keys_;
};

/// Algorithm-independent lower bound on any collective of `bytes` over
/// `group_size` members: the larger of the per-member ingress floor (every
/// member must receive (g-1)/g * V through the sum of its link bandwidths)
/// and, for each level a group that large necessarily crosses, the
/// non-resident fraction of V through one full unit's aggregate uplink.
/// Used by core/lower_bounds; conservative for every algorithm above
/// (including LL and the hierarchical phases).
Seconds collective_time_floor(const hw::Topology& topo,
                              std::int64_t group_size, Bytes bytes);

/// Fastest single-link bandwidth anywhere in the fabric — the best case a
/// point-to-point hop can see. Used for the pipeline-handoff lower bound.
BytesPerSec best_p2p_bandwidth(const hw::Topology& topo);

}  // namespace tfpe::comm
