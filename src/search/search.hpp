#pragma once
// Optimal-configuration search (paper §III S3): find the feasible
// (parallelization x placement x panel) configuration with minimum
// iteration time.
//
// The default engine is a prune-and-memoize branch-and-bound over the
// enumerated space:
//   * cheap analytic lower bounds (core/lower_bounds.hpp) reject
//     configurations whose compute-only FLOP floor already exceeds the
//     shared incumbent (best achieved iteration time) or whose
//     placement-independent memory floor exceeds HBM, before any op list
//     is built;
//   * a concurrent block cache shares one lowered layer across all
//     (np, nd, m) combinations with the same tensor shapes, and a
//     placement cache shares the non-dominated placement sets across the
//     interleave/ZeRO/ring expansion axes;
//   * candidates are evaluated cheapest-bound-first in fixed-size rounds
//     with dynamically scheduled workers; the incumbent is re-read at each
//     round barrier, which keeps the pruning decisions (and therefore
//     SearchResult::evaluated) independent of the thread count;
//   * the fabric is resolved once per search; each candidate that fits in
//     HBM has its whole placement set timed by one batched kernel call
//     (scan_placements_batch), priced by its worker's own FabricPricer;
//     one over HBM is reported infeasible without being timed;
//   * before that kernel call, a placement-independent floor built from
//     the candidate's own bind (core::placement_floor) settles a candidate
//     that is slower than the round's incumbent under every placement.
// Pruning is conservative: the returned optimum is identical — same
// configuration, same iteration time — to the exhaustive sweep's
// (SearchOptions::prune = false).

#include <cstdint>
#include <limits>

#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/evaluator.hpp"
#include "search/enumerate.hpp"

namespace tfpe::search {

struct SearchOptions : EnumerationOptions {
  /// Search the NVS-domain placement of each group (S3 item 2). When false,
  /// the fast domain is packed greedily onto TP1, then TP2, PP, DP.
  bool search_placement = true;
  /// Worker threads; 0 -> hardware concurrency.
  unsigned threads = 0;

  /// Prune-and-memoize engine (default). Set false for the exhaustive
  /// brute-force sweep; the optimum is identical either way, only the work
  /// performed (SearchStats) differs. Incumbent-based pruning is
  /// automatically bypassed when top_k > 0, because near-optimal
  /// configurations must then survive to be ranked (the memory-floor
  /// rejection and both caches still apply).
  bool prune = true;

  /// Candidates evaluated between incumbent re-reads in the pruned engine.
  /// Pruning decisions happen only at these round barriers, which keeps the
  /// evaluated/pruned counts — not just the optimum — invariant to the
  /// thread count.
  std::size_t round_size = 64;

  /// Interleaved-pipeline chunk counts to try (extension; {1} = the paper's
  /// non-interleaved schedule).
  std::vector<std::int64_t> interleave_candidates{1};
  /// Also try ZeRO-3 weight sharding per configuration (extension).
  bool allow_zero3 = false;
  /// Also try ring attention for n2 > 1 configurations (extension).
  bool allow_ring_attention = false;
  /// Modeling extensions applied to every evaluation.
  core::EvalOptions eval;

  /// Keep the k best distinct parallelizations in SearchResult::top
  /// (0 = just the optimum).
  std::size_t top_k = 0;
};

/// Work counters for one search, for perf tracking and the pruned-vs-
/// exhaustive A/B benches.
struct SearchStats {
  /// Parallelizations after the interleave/ZeRO/ring expansion (the size of
  /// the candidate space before any pruning).
  std::size_t candidates = 0;
  /// Candidates rejected because their iteration-time lower bound exceeded
  /// the incumbent.
  std::size_t bound_pruned = 0;
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
  /// Incumbent rounds executed by the pruned engine.
  std::size_t rounds = 0;
  /// Candidates settled by the placement-floor screen: their tail compiled
  /// and finished against the block, but their placement set never timed
  /// because their placement floor was above the round's incumbent. Their
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

SearchResult find_optimal(const model::TransformerConfig& mdl,
                          const hw::SystemConfig& sys,
                          const SearchOptions& opts);

/// The (iteration time, HBM memory) Pareto frontier of the feasible space:
/// configurations for which no other feasible configuration is both faster
/// and lighter. Sorted fastest-first (memory strictly decreasing along the
/// frontier). Answers "what is the fastest plan under X GB?" for system
/// co-design. Runs without incumbent pruning (every feasible candidate must
/// be inspected) and streams the frontier out of the per-candidate results
/// instead of materializing the whole feasible set.
std::vector<core::EvalResult> pareto_frontier(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    SearchOptions opts);

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

/// The candidate parallelizations find_optimal scans: enumerate_parallel
/// expanded by the interleave / ZeRO-3 / ring-attention axes. Depends on
/// the SYSTEM only through its GPU count (or opts.n_gpus), never on the
/// GPU type or NVS domain size — a hardware sweep at fixed scale enumerates
/// once and reuses the list for every grid point. It does depend on the
/// MODEL shape (divisibility of heads/hidden/depth/seq_len, GQA and MoE
/// widths, the interleave filter on depth/np), so any memo shared across
/// architectures must key on the full (shape, GPU count) pair — see
/// search::CandidateCache in search/codesign.hpp.
std::vector<parallel::ParallelConfig> expand_candidates(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const SearchOptions& opts);

/// Greedy packing of the fast domain when placement search is disabled:
/// give NVS GPUs to TP1 first, then TP2, PP, DP.
void pack_placement(parallel::ParallelConfig& cfg, std::int64_t nvs_domain);

/// Whole-signature convenience scan over the kernel: lowers `sig`
/// (lower_batched) and runs one non-prevalidated scan_placements_batch over
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
