#pragma once
// Cross-hardware sweep (paper §IV Figs. 2-5, A2-A6): the optimal
// configuration of one model at many hardware points — GPU generations,
// NVS-domain sizes, bandwidth/capacity what-ifs. run_sweep is the scan
// driver run_codesign (search/codesign.hpp) over a one-shape family; that
// header documents the engine — lazy enumeration, compile-once caches,
// chains, warm starts — and its exactness argument. The per-point optima
// are IDENTICAL — configuration, time and memory bits — to find_optimal
// run at that point, with or without warm_start (bench_sweep_scaling
// asserts this on every run), and every SweepStats WORK counter is
// invariant to the thread count.
//
// Supported per-point result is the optimum only (a top_k ranking goes
// through find_optimal).

#include <cstdint>
#include <vector>

#include "hw/system.hpp"
#include "search/search.hpp"

namespace tfpe::search {

struct SweepOptions {
  /// Candidate space + evaluation extensions, shared by every grid point;
  /// every point is scanned with bounds + incumbent pruning.
  ScanOptions search;

  /// Workers across chains of grid points; 0 = hardware concurrency.
  unsigned threads = 0;

  /// Seed each point's incumbent from its chain predecessor's optimal
  /// candidate (see "WARM STARTS" in search/codesign.hpp). Off by default
  /// so the default counters match the cold engine; turn on for large
  /// grids.
  bool warm_start = false;
};

/// Work counters for one sweep, aggregated over all grid points
/// (CodesignStats extends them with the shape-level counters).
struct SweepStats {
  std::size_t points = 0;
  std::size_t feasible_points = 0;
  /// Candidate parallelizations per distinct (shape, GPU count), summed
  /// over the distinct pairs (NOT multiplied by the points sharing them).
  std::size_t candidates = 0;
  /// Placements accounted for over all points: timed by a batch kernel,
  /// or settled by the placement-floor screen.
  std::size_t evaluated = 0;
  /// Candidates whose lower bound was above the point's incumbent when the
  /// scan stopped; never compiled or timed at that point.
  std::size_t bound_pruned = 0;
  /// The part of bound_pruned settled a whole prefix at a time: leaves of
  /// candidate-tree prefixes whose prefix floor stayed above the incumbent,
  /// so the scan never bounded them one by one (see search/point_scan.hpp).
  std::size_t subtree_pruned = 0;
  /// Candidates whose memory floor — the analytic one or the exact
  /// per-token one (see search/point_scan.hpp) — is above HBM (never
  /// compiled). find_optimal screens on the analytic floor alone, so this
  /// count is at least its at the same point.
  std::size_t memory_pruned = 0;
  /// Candidates settled by the placement-floor screen (see
  /// SearchStats::placement_floor_pruned): bound, never timed, their
  /// placements still counted in `evaluated`.
  std::size_t placement_floor_pruned = 0;
  /// Cross-sweep tail sharing: compiles is the number of distinct
  /// candidate tails compiled (core::compile_tail, one per SignatureKey);
  /// hits counts every reuse served by a tail-cache probe (across chains
  /// and across the interleave axis).
  std::size_t signature_compiles = 0;
  std::size_t signature_cache_hits = 0;
  /// Candidate visits served by a chain-held tail with NO cache probe
  /// (the engine keeps each candidate's tail in its ChainContext across
  /// the points of a chain). find_optimal compiles a tail on every visit,
  /// so these are the visits that would have been compiles there —
  /// compile_hit_rate() folds them in.
  std::size_t signature_reuses = 0;
  /// Block lowers: one per distinct LayerKey, each a build_layer +
  /// compile_layer. build_layer_calls counts them plus the
  /// per-token memory floor's unit builds (one build_layer at local
  /// microbatch 1 per layer family, no lowering); layer_cache_hits counts
  /// block reuses.
  std::size_t signature_lowers = 0;
  std::size_t build_layer_calls = 0;
  std::size_t layer_cache_hits = 0;
  std::size_t placement_sets = 0;
  std::size_t placement_cache_hits = 0;

  /// time_placements_batch invocations and the placements they timed
  /// (screened candidates make no call); occupancy is the mean batch width (1.0 would mean one placement per
  /// kernel call).
  std::size_t batch_calls = 0;
  std::size_t batch_placements = 0;

  /// Points whose scan started from a chain predecessor's optimum, and how
  /// many of those seeds produced a feasible incumbent (a miss means the
  /// parent's optimum went invalid/over-capacity at the child point).
  std::size_t warm_seeded = 0;
  std::size_t warm_seed_feasible = 0;

  /// Busy wall-clock per pipeline stage, summed across workers, plus the
  /// sweep's wall time. overlap() > 1 means stages genuinely ran
  /// concurrently. Schedule-dependent — excluded from determinism tests.
  struct StageProfile {
    /// Candidate trees (CandidateTree) and their memory floors
    /// (MemoryFloors).
    double enumerate_s = 0;
    double compile_s = 0;    ///< tail compile + block lower + bind
    double time_s = 0;       ///< the rest of the scan: screens, merge, timing
    double wall_s = 0;
    double overlap() const {
      return wall_s > 0 ? (enumerate_s + compile_s + time_s) / wall_s : 0.0;
    }
  };
  StageProfile profile;

  /// Fraction of candidate compile lookups that did NOT compile: cache
  /// hits plus chain-held reuses, over all lookups. The engine answers
  /// most repeat visits from the chain without a probe, so a probes-only
  /// rate would under-report its sharing (see docs/API.md, "Counter
  /// semantics").
  double compile_hit_rate() const {
    const std::size_t served = signature_cache_hits + signature_reuses;
    const std::size_t total = signature_compiles + served;
    return total == 0 ? 0.0
                      : static_cast<double>(served) /
                            static_cast<double>(total);
  }
  double batch_occupancy() const {
    return batch_calls == 0 ? 0.0
                            : static_cast<double>(batch_placements) /
                                  static_cast<double>(batch_calls);
  }
};

struct SweepResult {
  /// Best configuration per grid point, in input order (feasible == false
  /// with a reason when nothing fits that point).
  std::vector<core::EvalResult> best;
  /// Placement evaluations per grid point (thread-count invariant).
  std::vector<std::size_t> evaluated_per_point;
  SweepStats stats;
};

/// Optimal configuration of `mdl` at every system in `points`.
SweepResult run_sweep(const model::TransformerConfig& mdl,
                      const std::vector<hw::SystemConfig>& points,
                      const SweepOptions& opts);

/// The Fig. 2-style grid at a fixed GPU count: every (generation, NVS
/// domain, spine oversubscription) triple, generations outer and
/// oversubscription innermost. Ratio 1 keeps the canonical two-level
/// fabric; ratios > 1 attach a three-level leaf/spine fabric (leaf pods of
/// `leaf_size` GPUs, rounded down to a multiple of the NVS domain) with
/// that spine oversubscription — so run_sweep sweeps oversubscription
/// exactly like it sweeps the NVS-domain size.
std::vector<hw::SystemConfig> hardware_grid(
    const std::vector<hw::GpuGeneration>& gens,
    const std::vector<std::int64_t>& nvs_domains, std::int64_t n_gpus,
    const std::vector<double>& oversubscriptions = {1.0},
    std::int64_t leaf_size = 64);

}  // namespace tfpe::search
