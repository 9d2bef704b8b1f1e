#pragma once
// A command line read by its flag table, one io::Row per flag: --flag value,
// --flag=value, and switches (Kind::kBool), which never take a value. Every
// value is read by its row; flags nobody reads are collected so tools can
// fail fast with usage.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "io/schema.hpp"

namespace tfpe::io {

class ArgParser {
 public:
  /// Parses argv (argv[0] is skipped). A flag that is no switch of `rows`
  /// reads the next token as its value unless that is a flag. Throws
  /// std::invalid_argument for a switch given `--name=value`.
  ArgParser(const std::vector<Row>& rows, int argc, const char* const* argv);

  /// Text of the value-taking flag --name, or nullopt when it is absent.
  /// Throws std::invalid_argument when it is given without a value (bare,
  /// last or before another flag, or `--name=`).
  std::optional<std::string> get(const std::string& name) const;

  bool has(const std::string& name) const;

  /// --name's value read by its row, or nullopt when it is not given.
  std::optional<Value> given(const std::string& name) const;

  /// --name's value, else its row's default (empty when it has none).
  Value value(const std::string& name) const;
  std::int64_t integer(const std::string& name) const {
    return value(name).ints.front();
  }
  double real(const std::string& name) const {
    return value(name).reals.front();
  }

  /// [name] of `sections` (empty when absent) with each row flag of that
  /// record given here written over its key, read by its row.
  Section record(const ConfigSections& sections, const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried — call after all reads to reject typos.
  std::vector<std::string> unused() const;

 private:
  /// --name's row; nullptr when the table has none.
  const Row* row(const std::string& name) const;

  std::vector<Row> rows_;
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace tfpe::io
