#pragma once
// Minimal command-line flag parser for the tools: supports
//   --flag value   and   --flag=value   and boolean   --flag
// Unknown flags are collected as errors so tools can fail fast with usage.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tfpe::util {

class ArgParser {
 public:
  /// Parses argv; flags must start with "--". Positional arguments are kept
  /// in order and available via positional().
  ArgParser(int argc, const char* const* argv);

  /// Value of the value-taking flag --name, or nullopt when it is absent.
  /// Throws std::invalid_argument when it is given without a value (bare,
  /// last or before another flag, or `--name=`). get_or, get_int_or and
  /// get_double_or read through it.
  std::optional<std::string> get(const std::string& name) const;

  /// The token parsed as --name's value, "" for a bare flag: for a boolean
  /// flag whose "--flag value" rule swallowed a following operand.
  std::optional<std::string> raw(const std::string& name) const;

  std::string get_or(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& name, std::int64_t fallback) const;
  double get_double_or(const std::string& name, double fallback) const;
  bool has(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never queried — call after all get()s to reject typos.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace tfpe::util
