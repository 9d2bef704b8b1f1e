#pragma once
// Cross-layer consistency passes over the two-phase/batched pipeline. The
// op-graph linter (analysis/invariants.hpp) audits the layer builders;
// these passes audit everything compiled FROM a layer: the batched SoA
// lowering, the per-sweep scratch tables and the hardware descriptions the
// signatures are bound against. All pure; debug builds run the batched
// checks inside bind_system_batched / time_placements_batch.
//
//   batched-shape         every SoA array mirrors the AoS signature slot
//                         for slot (sizes, values, comm begin/count ranges)
//   batched-panel-scale   comm_panel_bytes is bitwise req.bytes * (1 /
//                         panels) of the owning op — the exact product
//                         core::op_time feeds to collective_time
//   batched-price-row     the pricing-row dedup preserves the request
//                         multiset: every request maps to a row whose
//                         representative carries the identical (collective,
//                         group, volume-bits) triple, and each row maps
//                         back to itself
//   batched-group-mask    comm_groups_mask has bit g set iff some request
//                         targets group g
//   batched-summa-ops     summa_ops lists exactly the ops with panels > 1,
//                         in op order
//   batched-scratch-shape BatchScratch row offsets / table cells / column
//                         indices agree with the signature and batch shape
//   system-compute        GPU rates, HBM bandwidth/capacity positive,
//                         kernel latency non-negative
//   system-network        link bandwidths positive, latencies non-negative,
//                         NIC rails positive, efficiency in (0, 1]
//   system-domain         n_gpus >= 1, nvs_domain >= 1 and divides n_gpus,
//                         host link positive
//   system-hbm-floor      the signature's static residency (weights +
//                         gradients + optimizer) alone overflows HBM — no
//                         recompute or offload setting can save this bind

#include <cstddef>

#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "hw/system.hpp"

namespace tfpe::analysis {

/// Lint a SoA lowering against the signature it was packed from
/// (batched-shape, -panel-scale, -price-row, -group-mask, -summa-ops).
LintReport lint_batched(const core::CostSignature& sig,
                        const core::BatchedSignature& bat,
                        const LintOptions& opts = {});

/// Lint a populated BatchScratch against the batch that filled it
/// (batched-scratch-shape). `n_placements` is the placement count of the
/// time_placements_batch call that last used the scratch.
LintReport lint_batch_scratch(const core::BatchedSignature& bat,
                              const core::BatchScratch& scratch,
                              std::size_t n_placements,
                              const LintOptions& opts = {});

/// Lint a hardware description (system-compute, -network, -domain) and its
/// resolved fabric (merges lint_topology).
LintReport lint_system(const hw::SystemConfig& sys,
                       const LintOptions& opts = {});

/// System lint plus the signature-aware HBM floor (system-hbm-floor).
LintReport lint_system(const hw::SystemConfig& sys,
                       const core::CostSignature& sig,
                       const LintOptions& opts = {});

/// Debug-build hook: throws std::logic_error with the report summary when
/// the lowering violates any error-severity batched invariant.
void assert_batched_invariants(const core::CostSignature& sig,
                               const core::BatchedSignature& bat);

}  // namespace tfpe::analysis
