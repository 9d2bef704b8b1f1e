#pragma once
// The scan driver: the optimal (shape, parallelization, placement) triple
// over a family of model shapes crossed with a hardware grid — GPU
// generations, NVS-domain sizes, bandwidth/capacity and fabric what-ifs
// (paper §IV Figs. 2-5, A2-A6; architecture co-design after Anthony et
// al., arXiv 2401.14489). run_sweep (search/sweep.hpp) is this driver over
// a one-shape family. It runs as a branch-and-bound over the PRODUCT space
// instead of a find_optimal loop per (shape, point):
//
//   * LAZY, MEMOIZED ENUMERATION — expand_candidates depends on the system
//     only through the GPU count but on the model shape (see search.hpp),
//     so CandidateCache memoizes it on the full (shape key, GPU count)
//     pair and shares the lists across the grid. The first worker that
//     needs a list builds it, so enumeration OVERLAPS other chains'
//     compile and timing work instead of serializing ahead of the fan-out.
//   * COMPILE PER LAYER — each distinct layer is lowered once into a
//     hardware-invariant SoA block and each candidate compiles only its
//     scalar tail against it (core/cost_signature.hpp, "block / tail
//     split"). The block and tail caches (ShapeCaches) key below the
//     model, so the driver scopes one pair per shape, shared by all of
//     that shape's grid points (and the interleave axis within a point);
//     the PlacementCache and CandidateCache are model-keyed or model-free
//     and live for the whole run.
//   * CHAINS — grid points sharing a GPU type and scale (the NVS/bandwidth
//     axis of a hardware_grid) form a chain, in input order. Chains stream
//     over util::parallel_for_dynamic; within a chain the points run
//     sequentially through one ChainContext (search/point_scan.hpp: a
//     tail per candidate, a bind per block and GPU roofline, a floor walk
//     per block and point).
//   * WARM STARTS (SweepOptions::warm_start) — each scan first re-times a
//     seed candidate: the previous surviving shape's optimum at the same
//     point, looked up BY VALUE in this shape's list (indices are not
//     comparable across shapes), else the chain predecessor's optimum.
//     That seeds the incumbent with an *achieved* time and lets the
//     lower-bound prune cut deeper. A seed can only tighten the
//     incumbent, never below the point's true optimum, so the optima are
//     unchanged — bit for bit — with or without warm starts.
//   * SHAPE-LEVEL PRUNING (CodesignOptions::prune_shapes) —
//     core::shape_time_floor bounds every candidate of a shape from the
//     architecture and the system peaks alone, BEFORE the shape's
//     candidate space is enumerated. A shape whose floor already exceeds
//     the point's cross-shape incumbent (an achieved iteration time from
//     an earlier shape) is skipped outright: floor > incumbent implies
//     every one of its configurations is strictly slower than an achieved
//     time, so it can neither win nor tie. Pruned (shape, point) pairs are
//     reported as such, never with a fabricated optimum. The first shape
//     has no incumbent, so a one-shape run never prunes.
//   * Per point, candidates scan cheapest-lower-bound-first with a point-
//     local incumbent, and all placements of a candidate are timed by one
//     core::time_placements_batch call over the SoA arrays.
//
// EXACTNESS CONTRACT: for every (shape, point) pair the driver scans, the
// reported result is BITWISE identical — configuration, time and memory —
// to find_optimal(shape, point), with or without warm starts; per-point
// winners equal the shape-order better_result reduction of those
// per-shape optima. Shape-level pruning only ever removes pairs that
// provably cannot affect a winner (their per-shape entry is flagged
// pruned). With prune_shapes = false the full per-shape matrix is exact.
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
// and per surviving shape only the candidates surviving the warm-seeded
// per-point incumbent — the bench's GPT3-1T-class family resolves a
// 200-shape x 3-generation product at >= 5x the per-shape find_optimal
// throughput.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "model/shape_family.hpp"
#include "search/search_cache.hpp"
#include "search/sweep.hpp"

namespace tfpe::search {

/// The architecture slice expand_candidates reads (every divisibility
/// constraint of enumerate_parallel plus the MoE/GQA widths and the
/// interleave depth filter), plus the GPU count — the full memoization key.
/// Two different shapes at the same scale MUST miss each other (the
/// regression test pins this; see the expand_candidates comment in
/// search.hpp for why keying on the count alone would alias them).
struct ShapeKey {
  std::int64_t seq_len = 0;
  std::int64_t embed = 0;
  std::int64_t heads = 0;
  std::int64_t depth = 0;
  std::int64_t hidden = 0;
  std::int64_t kv_heads = 0;
  std::int64_t vocab = 0;
  std::int64_t window = 0;
  std::int64_t moe_experts = 0;
  std::int64_t moe_top_k = 0;
  model::AttentionKind attention = model::AttentionKind::kFull;
  std::int64_t n_gpus = 0;

  bool operator==(const ShapeKey&) const = default;
};

ShapeKey shape_key(const model::TransformerConfig& mdl, std::int64_t n_gpus);

/// Memoized expand_candidates over (shape, GPU count), shared by every
/// grid point and shape of one co-design run. Thread-safe (a ShardedMemo:
/// each key enumerates exactly once, so builds() is deterministic, and
/// readers share the immutable list).
class CandidateCache {
 public:
  /// The expanded candidate list for `mdl` at the scale find_optimal would
  /// use (opts.n_gpus when positive, else sys.n_gpus), enumerating on
  /// first use.
  std::shared_ptr<const std::vector<parallel::ParallelConfig>> get(
      const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
      const SearchOptions& opts);

  std::size_t builds() const { return memo_.builds(); }
  std::size_t hits() const { return memo_.hits(); }
  /// Summed size of the distinct lists built (not multiplied by reuse).
  std::size_t candidates() const { return candidates_.load(); }

 private:
  struct KeyHash {
    std::size_t operator()(const ShapeKey& k) const;
  };
  ShardedMemo<ShapeKey, std::vector<parallel::ParallelConfig>, KeyHash> memo_;
  std::atomic<std::size_t> candidates_{0};
};

struct CodesignOptions {
  /// Scan knobs: `sweep.search` fixes the candidate space and global batch
  /// for every shape; `sweep.warm_start` / `sweep.threads` tune the scan.
  /// search.top_k and search.threads must stay 0 (see SweepOptions).
  SweepOptions sweep;

  /// Screen whole shapes with core::shape_time_floor against the per-point
  /// cross-shape incumbent (see header). Winners are unaffected bit for
  /// bit; pruned (shape, point) entries are flagged instead of evaluated.
  /// Set false when the full exact per-shape matrix is the product wanted
  /// (e.g. tfpe-sweep --arch CSV dumps).
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
  std::size_t feasible_shape_points = 0;
  /// CandidateCache builds (distinct (shape, scale) lists enumerated) and
  /// hits; `candidates` is the summed size of the distinct lists.
  std::size_t enumerations = 0;
  std::size_t enumeration_hits = 0;
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
  /// when scanned; when pruned[s][p] (architecture floor above the
  /// cross-shape incumbent) it is infeasible with the shape-pruned reason.
  std::vector<std::vector<core::EvalResult>> per_shape;
  std::vector<std::vector<std::uint8_t>> pruned;
  /// evaluated[s][p]: placement evaluations of that pair's scan (0 when
  /// pruned); sums to stats.evaluated.
  std::vector<std::vector<std::size_t>> evaluated;

  CodesignStats stats;
};

/// Driver run over `shapes` x `points`. Throws std::invalid_argument when
/// opts.sweep.search.top_k or .threads is nonzero (see SweepOptions).
CodesignResult run_codesign(const std::vector<model::TransformerConfig>& shapes,
                            const std::vector<hw::SystemConfig>& points,
                            const CodesignOptions& opts);

}  // namespace tfpe::search
