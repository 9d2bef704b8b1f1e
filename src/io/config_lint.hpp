#pragma once
// Config-file schema lint with line-accurate locations (`tfpe lint
// path.tfpe`). Where the loaders throw on the first problem, this pass
// reports every schema violation in one go, each anchored to the file and
// line that caused it:
//
//   config-parse            the file does not parse at all ([section] /
//                           key = value syntax)
//   config-unknown-section  a section no loader consumes (warning — the
//                           loaders ignore it silently today)
//   config-unknown-key      a key its section's schema does not define
//   config-value            a value the loader or validator rejects
//   config-list-length      a [topology] per-level list whose length does
//                           not match the declared levels
//   config-missing-key      a required key is absent
//
// The sections and their keys are the records of io/schema.hpp: each key's
// value is checked by its row, under the row's rule (TFPE-CFG-004,
// TFPE-CODESIGN-001 or -002), at its own line. A [codesign] section
// that enumerates no shape around the file's [model] warns
// (TFPE-CODESIGN-003); a [serving] grid is screened against the file's
// [model] and [system] (TFPE-SERVE-001/002). Successfully built
// [system]/[topology] records are additionally run through
// analysis::lint_system / lint_topology so a schema-clean file with an
// unsound machine description still fails strict mode.

#include <istream>
#include <string>

#include "analysis/invariants.hpp"

namespace tfpe::io {

/// Lint config text; `filename` anchors the diagnostics' locations.
analysis::LintReport lint_config_text(std::istream& in,
                                      const std::string& filename,
                                      const analysis::LintOptions& opts = {});

/// Lint a config file on disk (config-parse when unreadable).
analysis::LintReport lint_config_file(const std::string& path,
                                      const analysis::LintOptions& opts = {});

}  // namespace tfpe::io
