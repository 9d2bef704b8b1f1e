#pragma once
// One schema table per .tfpe record: [model], [system], [topology], [plan],
// [sweep], [codesign] and [serving]. A row names a key, its kind, domain,
// default, unit scale and the record member it sets. The loaders
// (*_from_section) throw on the first problem; the schema lint
// (io::lint_config_text) reports each at its key's line under the row's
// rule; a CLI flag that overrides a row is written into the section
// (io::ArgParser::record) and read by the same row. Checks that need
// several keys run after the rows: TransformerConfig::validate(),
// [topology] list lengths and depth, [codesign] range order and the
// model::shape_family probe. `tfpe` declares its subcommands' own flags as
// rows too.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "io/config_file.hpp"

namespace tfpe::io {

/// How a value reads (a list may have no empty entry).
enum class Kind {
  kInt, kReal, kName, kString,      // one value
  kInts, kReals, kNames, kStrings,  // a comma-separated list of them
  kBool,  // a CLI switch: given bare, it never takes a value
};

inline bool is_list(Kind k) { return k >= Kind::kInts && k != Kind::kBool; }

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

inline Domain at_least(double lo) { return {lo}; }
inline Domain range(double lo, double hi) { return {lo, hi}; }
inline Domain names(const char* set,
                    bool (*known)(const std::string&) = nullptr) {
  return {.names = set, .known = known};
}

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
  const char* flag = nullptr;  ///< CLI flag that sets the row.
  const char* help = nullptr;  ///< The flag's --help line.
};

/// A row's value, read: the text, its entries as written (one for a
/// scalar) and their numbers (reals times the row's scale).
struct Value {
  std::string text;
  std::vector<std::string> items;
  std::vector<std::int64_t> ints;
  std::vector<double> reals;
};

/// What a row admits: "an integer >= 1", "one of 1d|2d|summa", ...; empty
/// for text and switches, which any value (or none) reads as.
std::string describe(const Row& r);

/// `text` as flag `r.flag` gives it, read by row `r`. Throws
/// std::invalid_argument naming the flag and the row's rule when the row
/// rejects it.
Value read_flag(const Row& r, const std::string& text);

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

}  // namespace tfpe::io
