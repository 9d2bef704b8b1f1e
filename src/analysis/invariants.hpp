#pragma once
// Op-graph invariant analyzer (model-invariant linter).
//
// The layer builders (parallel/layer_builder_*.cpp) implement the paper's
// Tables I / II / A2 op lists. This pass independently re-derives what each
// built op MUST look like from the conservation laws of the parallelization
// algebra and checks the construction against them:
//
//   op-sequence          the block emits the canonical op order
//   flop-invariance      splitting dimensions conserves total FLOPs:
//                        n1*n2 * per-GPU FLOPs == the serial (n1=n2=1) block
//   activation-term      each op stores exactly its table entry;
//   activation-sum       the per-block total partitions accordingly
//   collective-structure every op carries the collectives (type, group,
//                        count) its table row prescribes
//   collective-volume    with the re-derived Table I/II/A2 volumes
//   shape-chain          each op's output element count feeds the next op's
//                        input (collectives resize tensors in between)
//   fwd-bwd-comm         backward collectives are the conjugates of the
//                        forward ones (AG <-> RS, B <-> R) at equal volume
//                        (SUMMA: two conjugate pairs, 2x volume per group)
//   fwd-bwd-flops        backward/forward FLOP ratios stay in the ranges
//                        implied by the counting rules (warning only)
//   pp-boundary          the pipeline handoff is one (b, l, e)/(n1 n2)
//                        activation tensor
//
// The analyzer is pure and cheap (a few hundred float ops per layer); debug
// builds run it on every evaluator call, tests and `tfpe_cli lint` consume
// the structured diagnostics directly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "comm/collective_model.hpp"
#include "core/cost_signature.hpp"
#include "hw/topology.hpp"
#include "model/transformer.hpp"
#include "parallel/layer_builder.hpp"
#include "parallel/parallel_config.hpp"

namespace tfpe::analysis {

struct LintOptions {
  /// Per-rule enable/suppress switches, applied by every lint entry point.
  RuleConfig rules;
  /// Relative tolerance for the FLOP-invariance rule. The (2k-1) terms of
  /// split contraction dimensions legitimately deviate by ~(split-1)/(2k).
  double flop_rtol = 1e-2;
  /// Relative tolerance for byte-exact quantities (volumes, stored bytes).
  double bytes_rtol = 1e-9;
  /// Relative tolerance for element counts in the producer/consumer chain.
  double shape_rtol = 1e-6;
};

/// Lint a pre-built layer against the model/config that produced it.
LintReport lint_layer(const model::TransformerConfig& mdl,
                      const parallel::ParallelConfig& cfg,
                      std::int64_t local_microbatch,
                      const parallel::LayerCost& layer,
                      const LintOptions& opts = {});

/// Build the layer for (mdl, cfg) and lint it.
LintReport lint_config(const model::TransformerConfig& mdl,
                       const parallel::ParallelConfig& cfg,
                       std::int64_t local_microbatch,
                       const LintOptions& opts = {});

/// Debug-build hook: throws std::logic_error with the report summary when
/// the layer violates any error-severity invariant.
void assert_layer_invariants(const model::TransformerConfig& mdl,
                             const parallel::ParallelConfig& cfg,
                             std::int64_t local_microbatch,
                             const parallel::LayerCost& layer);

/// Lint a compiled CostSignature against the layer it was lowered from:
///   signature-nonnegative  every roofline operand, collective volume and
///                          memory term is >= 0 (panels >= 1)
///   signature-op-count     one block slot per layer op in every per-op
///                          column
///   signature-flop-total   the block's FLOP sums reproduce the layer's
///                          fwd/bwd totals (and thereby inherit the
///                          analyzer's serial-block flop-invariance, which
///                          lint_layer checks on the same layer)
///   signature-hbm-total    the block's HBM byte sums reproduce the layer's
///   signature-comm-volume  per-group fwd/bwd collective volumes (panel
///                          volume x panels) match the layer's
///                          fwd/bwd_comm_bytes extraction hooks
///   signature-stored-bytes stored activations match layer.stored_bytes()
///   signature-pp-boundary  the pipeline handoff volume is preserved
LintReport lint_signature(const model::TransformerConfig& mdl,
                          const parallel::ParallelConfig& cfg,
                          const core::CostSignature& sig,
                          const parallel::LayerCost& layer,
                          const LintOptions& opts = {});

/// Lint a fabric topology against the machine it claims to describe:
///   topology-depth        1 <= depth <= hw::Topology::kMaxDepth
///   topology-positive     every level has fan_in >= 1 (or <= 0 for
///                         unbounded), latency >= 0, bandwidth > 0,
///                         rails > 0, oversubscription >= 1
///   topology-fan-in       the fan-in product covers n_gpus: an error when
///                         the fabric is too small for the machine, a
///                         warning when it is oversized
///   topology-monotone-bw  per-member tier bandwidth (bandwidth * rails *
///                         efficiency aggregated per member) non-increasing
///                         outward — legal but almost always a spec typo,
///                         so warning severity
/// Empty topologies lint clean (they resolve to the canonical two-level
/// fabric); pass hw::SystemConfig::resolved_fabric() to lint what the
/// evaluator will actually walk.
LintReport lint_topology(const hw::Topology& topo, std::int64_t n_gpus,
                         const LintOptions& opts = {});

/// Lint a collective group placement:
///   placement-valid  size >= 1, 0 < nvs <= size, nvs divides size — the
///                    same predicate comm::collective_time enforces (a
///                    violating placement used to produce negative ring hop
///                    counts instead of a diagnostic)
LintReport lint_placement(const comm::GroupPlacement& g,
                          const LintOptions& opts = {});

/// Lint a placement against a concrete fabric: placement-valid plus
///   placement-leaf-fan-in  nvs must not exceed the fabric's bounded
///                          level-0 fan-in (a valid divisor that overfills
///                          the fast domain prices a fabric walk the
///                          machine cannot realize) — the same predicate
///                          the topology-aware comm::collective_time now
///                          enforces instead of deferring to bind time
LintReport lint_placement(const hw::Topology& topo,
                          const comm::GroupPlacement& g,
                          const LintOptions& opts = {});

}  // namespace tfpe::analysis
