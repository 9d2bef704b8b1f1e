#pragma once
// Training-plan serialization: persist a chosen parallelization
// configuration (typically a search result) as a [plan] section in the same
// file format as the model/system configs, and load it back for
// re-evaluation. This is the artifact a planning session hands to the
// launch tooling.

#include <optional>
#include <ostream>
#include <string>

#include "core/evaluator.hpp"
#include "io/config_file.hpp"

namespace tfpe::io {

/// Serialize the configuration (plus a human-readable summary of the
/// evaluated result as comments) as a [plan] section.
void write_plan(std::ostream& os, const core::EvalResult& result,
                std::int64_t global_batch);

/// File convenience; throws std::runtime_error when the path cannot be
/// opened.
void write_plan_file(const std::string& path, const core::EvalResult& result,
                     std::int64_t global_batch);

struct LoadedPlan {
  parallel::ParallelConfig cfg;
  std::int64_t global_batch = 0;
};

/// Rebuild the configuration from a [plan] section (its rows are in
/// io/schema.cpp). Throws std::runtime_error on unknown keys or malformed
/// values.
LoadedPlan plan_from_section(const Section& s);

/// Load a plan from a file containing a [plan] section.
LoadedPlan load_plan_file(const std::string& path);

}  // namespace tfpe::io
