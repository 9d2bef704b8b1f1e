#pragma once
// The scan driver: the optimal (shape, parallelization, placement) triple
// over a family of model shapes crossed with a hardware grid — GPU
// generations, NVS-domain sizes, bandwidth/capacity and fabric what-ifs
// (paper §IV Figs. 2-5, A2-A6; architecture co-design after Anthony et
// al., arXiv 2401.14489). run_sweep (search/sweep.hpp) is this driver over
// a one-shape family. It runs as a branch-and-bound over the PRODUCT space
// instead of a find_optimal loop per (shape, point):
//
//   * ONE ENUMERATION PER (SHAPE, GPU COUNT) — the candidate tree depends
//     on the system only through the GPU count but on the model shape (see
//     enumerate.hpp). Before a shape's chains fan out, the CandidateTree of
//     each GPU count it is scanned at is built once, with its hardware-free
//     memory floors (MemoryFloors, search/point_scan.hpp), and shared by
//     every grid point at that GPU count; the chains only read both, and
//     read each leaf from the tree when they need it.
//   * COMPILE PER LAYER — each distinct layer is lowered once into a
//     hardware-invariant SoA block and each candidate compiles only its
//     scalar tail against it (core/cost_signature.hpp, "block / tail
//     split"). The block and tail caches (ShapeCaches) key below the
//     model, so the driver scopes one pair per shape, shared by all of
//     that shape's grid points (and the interleave axis within a point);
//     the PlacementCache is model-free and lives for the whole run.
//   * CHAINS — grid points sharing a GPU type and scale (the NVS/bandwidth
//     axis of a hardware_grid) form a chain, in input order. Chains stream
//     over util::parallel_for_dynamic; within a chain the points run
//     sequentially through one ChainContext (search/point_scan.hpp: a
//     tail per candidate, a bind per block and GPU roofline, a floor walk
//     per block and point).
//   * WARM STARTS (SweepOptions::warm_start) — every scan after the first
//     of its chain starts by re-timing a seed candidate: the chain
//     predecessor's optimum in the same shape's tree, carried as its
//     (index, prefix). Seeds never cross shapes: the cross-shape
//     incumbent below already starts every scan at the best time an
//     earlier shape reached. A seed puts an *achieved* time into the
//     incumbent and lets the lower-bound prune cut deeper. A seed can only
//     tighten the incumbent, never below the point's true optimum, so the
//     optima are unchanged — bit for bit — with or without warm starts.
//   * SHAPE-LEVEL PRUNING (CodesignOptions::prune_shapes) —
//     core::shape_time_floor bounds every candidate of a shape from the
//     architecture and the system peaks alone, BEFORE the shape's
//     candidate space is enumerated. A shape whose floor already exceeds
//     the point's cross-shape incumbent (an achieved iteration time from
//     an earlier shape) is skipped outright: floor > incumbent implies
//     every one of its configurations is strictly slower than an achieved
//     time, so it can neither win nor tie. A pair that survives the floor
//     is scanned starting from that same incumbent (scan_point's starting
//     incumbent, also the warm seed's cutoff), so the subtree and
//     placement floors cut its candidates against the best time any shape
//     has reached, not just its own. A scan that finds nothing at or below
//     the incumbent is CUT: its best is not the shape's optimum, but that
//     optimum is strictly slower than an achieved time, so it cannot win
//     or tie either. Floor-pruned and cut pairs are reported as such
//     (infeasible, reason "shape pruned: ..."), never with a fabricated
//     optimum. The first shape has no incumbent, so a one-shape run never
//     prunes or cuts.
//   * SUBTREE BOUNDS PER POINT — each point walks the shape's candidate
//     tree cheapest-lower-bound-first with a point-local incumbent (the
//     scan always prunes), in the (lb, index) order find_optimal pops in
//     (one PrefixMerge): a (n1, n2, np, nd, nb) prefix is expanded only
//     while its core::prefix_time_floor is <= both the incumbent and the
//     smallest pending bound, and a prefix never expanded is classified
//     whole, without screening its leaves (SweepStats::subtree_pruned;
//     search/point_scan.hpp has the order and the exactness argument).
//     All placements of a timed candidate go through one
//     core::time_placements_batch call over the SoA arrays.
//
// EXACTNESS CONTRACT: for every (shape, point) pair the driver reports
// unpruned, the result is BITWISE identical — configuration, time and
// memory — to find_optimal(shape, point), with or without warm starts;
// per-point winners equal the shape-order better_result reduction of those
// per-shape optima. Shape-level pruning only ever removes pairs that
// provably cannot affect a winner (their per-shape entry is flagged
// pruned): a floor-pruned or cut pair's find_optimal optimum is infeasible
// or strictly slower than the point's winner. The cut is exact because the
// starting incumbent is an achieved time: the scan stops only at a bound
// strictly above it and the placement-floor screen is strict with slack,
// so every candidate at or below it — ties included — is still timed, and
// a pair whose optimum is at or below it keeps find_optimal's entry. The
// cut is strictly-above, never at-or-above: better_result lets a later
// shape of equal time and lower HBM take the point. With prune_shapes =
// false nothing is pruned or cut and the full per-shape matrix is exact.
// bench_sweep_scaling, bench_codesign and the sweep / codesign smoke
// ctests assert this on every run.
//
// DETERMINISM: shapes run in family order with a sequential winner
// reduction between them; within a shape, chains fan out across the pool
// but each chain is sequential and its seeds are fixed by the input order.
// Every CodesignStats WORK counter is therefore invariant to the thread
// count; the StageProfile is wall-clock and schedule-dependent (use it for
// perf triage, never in golden tests).
//
// Complexity: |family| x |grid| x |candidates| product points, of which
// the driver evaluates only the shapes surviving the architecture floor,
// and per surviving shape only the candidates surviving the cross-shape,
// warm-seeded per-point incumbent — the bench's GPT3-1T-class family
// resolves a 200-shape x 3-generation product at >= 5x the per-shape
// find_optimal throughput.

#include <cstdint>
#include <vector>

#include "model/shape_family.hpp"
#include "search/sweep.hpp"

namespace tfpe::search {

struct CodesignOptions {
  /// Scan knobs: `sweep.search` fixes the candidate space and global batch
  /// for every shape; `sweep.warm_start` / `sweep.threads` tune the scan.
  SweepOptions sweep;

  /// Screen whole shapes with core::shape_time_floor against the per-point
  /// cross-shape incumbent, and start each surviving scan at it, cutting
  /// the pairs that reach nothing at or below it (see header). Winners are
  /// unaffected bit for bit; pruned and cut (shape, point) entries are
  /// flagged instead of reported.
  /// Set false when the full exact per-shape matrix is the product wanted
  /// (tfpe sweep's CSV rows, tfpe codesign --no-prune-shapes).
  bool prune_shapes = true;
};

/// Work counters for one driver run: the scan-level SweepStats, summed over
/// every scanned (shape, point) pair (`feasible_points` counts the points
/// that have a winner), plus the shape-level counters below. All except
/// `profile` are invariant to the thread count.
struct CodesignStats : SweepStats {
  std::size_t shapes = 0;  ///< family size
  /// (shape, point) pairs skipped by the architecture-level floor…
  std::size_t shapes_pruned = 0;
  /// …and pairs actually scanned (pruned + evaluated = shapes * points).
  std::size_t shapes_evaluated = 0;
  /// Scanned pairs cut after the scan (part of shapes_evaluated): nothing
  /// at or below the cross-shape incumbent the scan started from. Their
  /// work is counted like any scanned pair's.
  std::size_t shapes_cut = 0;
  /// Feasible entries among the reported (neither pruned nor cut) pairs.
  std::size_t feasible_shape_points = 0;
  /// Candidate trees built, one per scanned (shape, GPU count);
  /// `candidates` is their summed size.
  std::size_t enumerations = 0;
};

struct CodesignResult {
  static constexpr std::size_t kNoShape = static_cast<std::size_t>(-1);

  /// The family, echoed in enumeration order (row index of the matrices).
  std::vector<model::TransformerConfig> shapes;

  /// Per grid point: the winning shape index and its optimal
  /// configuration — the shape-order better_result reduction over the
  /// per-shape optima. shape == kNoShape when no (shape, point) pair was
  /// feasible.
  struct Winner {
    std::size_t shape = kNoShape;
    core::EvalResult best;
  };
  std::vector<Winner> best;

  /// per_shape[s][p]: find_optimal(shapes[s], points[p])'s exact result
  /// when pruned[s][p] == 0; otherwise it is infeasible with a reason
  /// containing "shape pruned".
  std::vector<std::vector<core::EvalResult>> per_shape;
  /// pruned[s][p]: 0 when the entry is exact, 1 when the architecture floor
  /// was above the cross-shape incumbent (never scanned), 2 when the scan
  /// found nothing at or below that incumbent (cut after the scan).
  std::vector<std::vector<std::uint8_t>> pruned;
  /// evaluated[s][p]: placement evaluations of that pair's scan (0 when
  /// floor-pruned; a cut pair keeps its scan's); sums to stats.evaluated.
  std::vector<std::vector<std::size_t>> evaluated;

  CodesignStats stats;
};

/// Driver run over `shapes` x `points`.
CodesignResult run_codesign(const std::vector<model::TransformerConfig>& shapes,
                            const std::vector<hw::SystemConfig>& points,
                            const CodesignOptions& opts);

}  // namespace tfpe::search
