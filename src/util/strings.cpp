#include "util/strings.hpp"

#include <cerrno>
#include <cstdlib>

namespace tfpe::util {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_list(const std::string& text, char sep,
                                    bool keep_empty) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto pos = text.find(sep, start);
    const std::string piece =
        trim(text.substr(start, pos == std::string::npos ? std::string::npos
                                                         : pos - start));
    if (keep_empty || !piece.empty()) out.push_back(piece);
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_real(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return v;
}

}  // namespace tfpe::util
