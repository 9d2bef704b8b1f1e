#pragma once
// Optimal-configuration search (paper §III S3): find the feasible
// (parallelization x placement x panel) configuration with minimum
// iteration time.
//
// The default engine is a prune-and-memoize branch-and-bound over the
// candidate tree (search/enumerate.hpp) against a cutoff: the k-th best
// iteration time achieved so far, k = max(1, SearchOptions::top_k), so a
// plain search cuts at its incumbent and a top-k ranking at its k-th entry:
//   * each (n1, n2, np, nd, nb) prefix carries core::prefix_time_floor, a
//     floor on every leaf's bound; a prefix is expanded only when its floor
//     is <= both the cutoff and the smallest pending leaf bound, so a
//     prefix above the cutoff is never materialized (its leaves count as
//     subtree_pruned, their memory verdicts decided per (m, ZeRO stage));
//   * cheap analytic lower bounds (core/lower_bounds.hpp) reject
//     expanded configurations whose FLOP + exposed-TP-communication floor
//     already exceeds the cutoff or whose placement-independent memory
//     floor exceeds HBM, before any op list is built;
//   * a concurrent block cache shares one lowered layer across all
//     (np, nd, m) combinations with the same tensor shapes, and a
//     placement cache shares the non-dominated placement sets across the
//     interleave/ZeRO/ring expansion axes;
//   * candidates are evaluated cheapest-bound-first in fixed-size rounds
//     with dynamically scheduled workers, popped from a merge of the
//     expanded leaves and the unexpanded prefixes in exactly the (bound,
//     index) order a full sort would give; the cutoff is recomputed at each
//     round barrier, which keeps the pruning decisions (and therefore
//     SearchResult::evaluated) independent of the thread count; a search
//     that resolves to one worker runs inline, with no thread pool;
//   * only evaluated candidates keep a result, reduced in index order;
//   * the fabric is resolved once per search; each candidate that fits in
//     HBM has its whole placement set timed by one batched kernel call
//     (scan_placements_batch), priced by its worker's own FabricPricer;
//     one over HBM is reported infeasible without being timed;
//   * before that kernel call, a placement-independent floor built from
//     the candidate's own bind (core::placement_floor) settles a candidate
//     that is slower than the round's cutoff under every placement.
// Pruning is conservative: every cut is strict (bound > cutoff), so the
// returned optimum and top-k ranking are identical — same configurations,
// iteration times and HBM totals — to the exhaustive sweep's
// (SearchOptions::prune = false, which evaluates every placement of every
// candidate through the core::evaluate_with_layer oracle).

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/evaluator.hpp"
#include "search/enumerate.hpp"

namespace tfpe::search {

/// What the scan driver (search/codesign.hpp) reads: the candidate space
/// and the modeling extensions. It always prunes, keeps only each point's
/// optimum and owns its thread budget, so it takes none of SearchOptions'
/// engine knobs.
struct ScanOptions : EnumerationOptions {
  /// Modeling extensions applied to every evaluation.
  core::EvalOptions eval;
};

struct SearchOptions : ScanOptions {
  SearchOptions() = default;
  /// find_optimal under a scan's options, at the engine defaults.
  SearchOptions(const ScanOptions& scan) : ScanOptions(scan) {}

  /// Worker threads; 0 -> hardware concurrency.
  unsigned threads = 0;

  /// Prune-and-memoize engine (default). Set false for the exhaustive
  /// brute-force sweep; the optimum and the top_k ranking are identical
  /// either way, only the work performed (SearchStats) differs.
  bool prune = true;

  /// Candidates evaluated between cutoff updates in the pruned engine.
  /// Pruning decisions happen only at these round barriers, which keeps the
  /// evaluated/pruned counts — not just the optimum — invariant to the
  /// thread count.
  static constexpr std::size_t round_size = 64;

  /// Keep the k best distinct parallelizations in SearchResult::top
  /// (0 = just the optimum). The pruned engine cuts against the k-th best
  /// achieved time, so a larger k prunes less.
  std::size_t top_k = 0;
};

/// Work counters for one search, for perf tracking and the pruned-vs-
/// exhaustive A/B benches.
struct SearchStats {
  /// Parallelizations after the interleave/ZeRO/ring expansion (the size of
  /// the candidate space before any pruning).
  std::size_t candidates = 0;
  /// Candidates rejected because their iteration-time lower bound exceeded
  /// the cutoff (the incumbent, or the k-th best time under top_k).
  std::size_t bound_pruned = 0;
  /// The part of bound_pruned settled a whole prefix at a time: leaves of
  /// candidate-tree prefixes whose core::prefix_time_floor was above the
  /// cutoff, so they were never materialized or bounded one by one.
  std::size_t subtree_pruned = 0;
  /// Candidates rejected because their placement-independent memory floor
  /// exceeded HBM capacity.
  std::size_t memory_pruned = 0;
  /// build_layer invocations (exhaustive: one per candidate; pruned: one
  /// per distinct LayerKey block actually needed) and block reuses.
  std::size_t build_layer_calls = 0;
  std::size_t layer_cache_hits = 0;
  /// enumerate_placements invocations / placement-set cache hits.
  std::size_t placement_sets = 0;
  std::size_t placement_cache_hits = 0;
  /// Candidate tails compiled (core::compile_tail, one per candidate the
  /// pruned engine evaluates). The layer counters above count the shared
  /// per-LayerKey blocks: each build is one build_layer, one lowering and
  /// one bind against the search's system, so a search lowers and binds at
  /// most build_layer_calls times however many candidates share a block.
  std::size_t signature_compiles = 0;
  /// Cutoff rounds executed by the pruned engine.
  std::size_t rounds = 0;
  /// Candidates settled by the placement-floor screen: their tail compiled
  /// and finished against the block, but their placement set never timed
  /// because their placement floor was above the round's cutoff. Their
  /// placements still count in SearchResult::evaluated.
  std::size_t placement_floor_pruned = 0;
};

struct SearchResult {
  core::EvalResult best;  ///< best.feasible == false if nothing fits.
  /// Placements accounted for: timed, or settled by the placement floor
  /// (bound-pruned candidates account for none; memory-infeasible
  /// candidates for one).
  std::size_t evaluated = 0;
  std::size_t feasible = 0;
  /// The top_k fastest feasible results, best first (one per
  /// parallelization, each with its best placement).
  std::vector<core::EvalResult> top;
  SearchStats stats;
};

/// The optimum (and top_k ranking) of `mdl` on `sys`. The fastest plan
/// under an HBM budget of X bytes is find_optimal at sys.gpu.hbm_capacity =
/// X: capacity decides only feasibility, so that is the fastest
/// configuration using at most X, ties going to the lighter one.
SearchResult find_optimal(const model::TransformerConfig& mdl,
                          const hw::SystemConfig& sys,
                          const SearchOptions& opts);

/// Best placement for a fixed parallelization configuration: evaluates every
/// non-dominated placement and returns the fastest feasible result (used by
/// the paper's Q1 sweeps, which fix the parallelization and optimize the
/// placement).
core::EvalResult best_placement(const model::TransformerConfig& mdl,
                                const hw::SystemConfig& sys,
                                parallel::ParallelConfig cfg,
                                std::int64_t global_batch,
                                const core::EvalOptions& eval = {});

// -- Building blocks shared with the scan driver (search/codesign.hpp) ----

/// True when `a` is strictly better than `b`: faster, or equally fast and
/// lighter on HBM. find_optimal and run_codesign both reduce per-candidate
/// results in candidate-index order with this predicate, which is what
/// makes their optima identical configuration-for-configuration.
bool better_result(const core::EvalResult& a, const core::EvalResult& b);

/// True when `a` and `b` are the same optimum bit for bit: equal
/// feasibility and, when feasible, the same configuration, iteration time
/// and HBM total — the comparison every engine-vs-find_optimal check uses.
bool same_optimum(const core::EvalResult& a, const core::EvalResult& b);

/// floor(cfg) of each (m, ring, ZeRO stage) group of `prefix`
/// (CandidateTree::group_of), appended to `out` in group order, with cfg
/// the group's leaf at the prefix's interleave field: `floor` must read no
/// interleave (no memory floor does), so it holds for each leaf of the
/// group.
template <class Floor>
void group_memory_floors(const CandidateTree& tree,
                         const CandidatePrefix& prefix, Floor&& floor,
                         std::vector<double>& out) {
  parallel::ParallelConfig cfg = prefix.cfg;
  const int rings = prefix.cfg.ring_attention ? 2 : 1;
  for (const std::int64_t m : tree.microbatches(prefix)) {
    cfg.microbatches = m;
    for (int ring = 0; ring < rings; ++ring) {
      cfg.ring_attention = ring != 0;
      for (std::size_t z = 0; z < tree.zero3_stages(); ++z) {
        cfg.zero = z != 0 ? parallel::ZeroStage::kWeights
                          : parallel::ZeroStage::kOptimizer;
        out.push_back(floor(cfg));
      }
    }
  }
}

/// Classify the leaves of a candidate-tree prefix the scan never expanded,
/// without materializing them: a group whose floor in `group_floors`
/// (group_memory_floors) exceeds `hbm` is memory-pruned, the others
/// subtree-pruned, less `settled[g]` leaves of group g the caller has
/// already counted (empty: none).
void classify_unexpanded(const CandidateTree& tree,
                         const CandidatePrefix& prefix,
                         std::span<const double> group_floors, Bytes hbm,
                         std::span<const std::size_t> settled,
                         std::size_t& memory_pruned,
                         std::size_t& subtree_pruned);

/// Whole-signature convenience scan over the kernel: runs one
/// non-prevalidated scan_placements_batch on `sig`'s block over
/// `placements`, pricing on `base.fabric`. `sig`/`base` must come from
/// compile_signature/bind_system for the same (mdl, cfg, batch, eval, sys).
/// Returns the best placement's result — bitwise what a per-placement
/// core::evaluate scan reports, reason included — and increments `evals`
/// once per placement accounted for. Infeasibility of a valid placement
/// can only come from the placement-independent memory model, so
/// `stop_after_infeasible` lets callers cut the scan short. The engines
/// keep block and tail apart and call scan_placements_batch directly; this
/// scan packages one candidate, e.g. the benchmark's traced replay of
/// find_optimal.
core::EvalResult scan_placements_signature(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::ParallelConfig cfg, std::int64_t global_batch,
    const core::CostSignature& sig, const core::SystemTiming& base,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const core::EvalOptions& eval, std::size_t& evals,
    bool stop_after_infeasible);

/// Time a candidate's whole placement set in one time_placements_batch
/// call and return its best result, bitwise what a per-placement
/// core::evaluate scan reports (the kernel's timings equal the evaluator's
/// bit for bit, so the argmin picks the same winner). `evals` is
/// incremented once per placement accounted for. `sig` is the candidate's
/// tail (a whole CostSignature converts) and `bat` its block;
/// `base` is their bind. `scratch` and `timings` are caller-owned so a
/// placement scan reuses their allocations across candidates. On return
/// `timings` holds the batch actually timed (empty when the screen or the
/// infeasibility shortcut skipped the kernel; one placement when an
/// over-HBM candidate is timed for its report).
///
/// Generation-major fast path: a non-null `pricer` (bound to the fabric
/// these placements should be priced against) is forwarded to
/// time_placements_batch and performs ALL collective pricing. With
/// `prevalidated` the caller additionally guarantees cfg is valid at `sys`
/// and the signature fits HBM — both decided by the engine's screens
/// before the call — so the placement-invariant shortcut is skipped.
/// Together the two make `base.fabric` dead on this path, which is what
/// lets the engines finish their binds without a fabric copy.
///
/// Placement-floor screen: `floor` is the candidate's placement floor
/// (core::placement_floor, or the engines' block walk finished by the
/// tail; 0 = no screen) and `cutoff` an achieved iteration time. A
/// candidate whose floor exceeds the cutoff by more than a 1e-9 relative
/// margin (for the different floating-point groupings of floor and price)
/// is slower than the cutoff under every placement. It is settled without
/// running the kernel: `evals` is still charged placements.size(), the
/// result is infeasible with reason "pruned: placement floor above
/// incumbent", `timings` stays empty and `*screened` (when non-null) is
/// set. Strictly greater, so a candidate that could tie the cutoff on time
/// (and win on memory) is still timed.
core::EvalResult scan_placements_batch(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    parallel::ParallelConfig cfg, std::int64_t global_batch,
    const core::SignatureTail& sig, const core::BatchedSignature& bat,
    const core::SystemTiming& base,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const core::EvalOptions& eval, std::size_t& evals,
    bool stop_after_infeasible, core::BatchScratch& scratch,
    std::vector<core::PlacementTiming>& timings,
    const comm::FabricPricer* pricer = nullptr, bool prevalidated = false,
    double floor = 0,
    double cutoff = std::numeric_limits<double>::infinity(),
    bool* screened = nullptr);

}  // namespace tfpe::search
