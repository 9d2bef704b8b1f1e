#pragma once
// Sweep-plan lint: static soundness checks on a sweep BEFORE it runs.
//
//   sweep-warm-chain  warm-start seeding chains key on (gpu.name, n_gpus);
//                     grid points sharing a chain key but differing in
//                     roofline or host link would seed from a predecessor
//                     bound against different hardware (the engine detects
//                     this and cold-starts, so a warning: the chain is
//                     misnamed, not wrong)
//
// Also merges analysis::lint_system over every grid point. Pure; the CLI
// runs it on [sweep] configs and the fuzz harness on every fuzzed plan.

#include <vector>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "hw/system.hpp"

namespace tfpe::search {

/// Lint a sweep plan: `points` is the grid.
analysis::LintReport lint_sweep_plan(
    const std::vector<hw::SystemConfig>& points,
    const analysis::LintOptions& lint_opts = {});

}  // namespace tfpe::search
