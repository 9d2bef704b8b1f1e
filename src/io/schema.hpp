#pragma once
// One schema table per .tfpe record: [model], [system], [topology], [plan],
// [sweep], [calibration], [codesign] and [serving]. A row names a key, its
// kind, domain, default, unit scale and the record member it sets. The
// loaders (*_from_section) throw on the first problem; the schema lint
// (io::lint_config_text) reports each at its key's line under the row's
// rule; a CLI flag that overrides a row is written into the section
// (with_flags) and read by the same row. Checks that need several keys run
// after the rows: TransformerConfig::validate(), [topology] list lengths
// and depth, [codesign] range order and the model::shape_family probe.

#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "io/config_file.hpp"

namespace tfpe::io {

/// How a value reads (a list may have no empty entry).
enum class Kind {
  kInt, kReal, kName, kString,      // one value
  kInts, kReals, kNames, kStrings,  // a comma-separated list of them
};

inline bool is_list(Kind k) { return k >= Kind::kInts; }

/// The values a row admits (each entry's, for a list).
struct Domain {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  bool integral = false;  ///< A real that must be a whole number.
  /// Names: the fixed set, '|'-separated; with `known`, only its
  /// description and `known` decides.
  const char* names = nullptr;
  bool (*known)(const std::string&) = nullptr;
};

/// One key of a record, apart from the member it sets.
struct Row {
  const char* key;
  Kind kind;
  Domain domain = {};
  /// Text read when the key is absent; nullptr keeps the record's own value.
  const char* fallback = nullptr;
  double scale = 1.0;  ///< Reals: the member holds value * scale.
  analysis::RuleId rule = analysis::RuleId::kConfigValue;  ///< Bad value.
  bool required = false;  ///< Absent -> TFPE-CFG-006.
  const char* flag = nullptr;  ///< CLI value flag that overrides the row.
};

/// A schema problem at `key`'s line (the section's line when `key` is ""
/// or absent from the file).
struct Problem {
  analysis::RuleId rule;
  std::string key;
  std::string message;
  double expected = 0;
  double actual = 0;
};

struct Schema {
  std::string section;
  std::vector<Row> rows;
  /// Every problem of a section read as this record: unknown keys, missing
  /// required keys and bad values in row order, then the checks that need
  /// several keys. Empty exactly when the record's loader accepts it.
  std::function<std::vector<Problem>(const Section&)> problems;
};

/// Every record's schema, in the order the file format documents them.
const std::vector<Schema>& schemas();

/// The schema of record `section`, or nullptr when no record reads it.
const Schema* find_schema(const std::string& section);

/// `s` with each row flag of `section` that `flag_value` returns written
/// over its key. Throws std::invalid_argument naming the flag when its row
/// rejects the value.
Section with_flags(
    const std::string& section, Section s,
    const std::function<std::optional<std::string>(const std::string&)>&
        flag_value);

}  // namespace tfpe::io
