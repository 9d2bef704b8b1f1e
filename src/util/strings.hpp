#pragma once
// Small string helpers shared by the tools and the config loaders: list
// splitting and the one strict numeric parser every input path uses.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tfpe::util {

/// `s` without leading and trailing spaces, tabs and carriage returns.
std::string trim(const std::string& s);

/// Split on `sep`, trimming each piece; empty pieces are dropped
/// ("a, b,,c" -> {"a","b","c"}) unless `keep_empty` ("a,,b" -> {"a","","b"}).
std::vector<std::string> split_list(const std::string& text, char sep = ',',
                                    bool keep_empty = false);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// The whole of `text` as a base-10 integer; nullopt when it is empty, has
/// trailing characters or overflows int64.
std::optional<std::int64_t> parse_int(const std::string& text);

/// The whole of `text` as a real (strtod syntax, so "nan" and "inf" read);
/// nullopt when it is empty, has trailing characters or is out of range.
std::optional<double> parse_real(const std::string& text);

}  // namespace tfpe::util
