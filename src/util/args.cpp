#include "util/args.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace tfpe::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--flag value" when the next token is not itself a flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "";
    }
  }
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  auto v = raw(name);
  if (v && v->empty()) {
    throw std::invalid_argument("flag --" + name + " expects a value");
  }
  return v;
}

std::optional<std::string> ArgParser::raw(const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& name,
                              const std::string& fallback) const {
  return get(name).value_or(fallback);
}

namespace {

/// --name's value read by `parse`, or `fallback` when the flag is absent.
template <class T>
T number_or(const std::optional<std::string>& v, const std::string& name,
            T fallback, std::optional<T> (*parse)(const std::string&),
            const char* what) {
  if (!v) return fallback;
  const std::optional<T> out = parse(*v);
  if (!out) {
    throw std::invalid_argument("flag --" + name + " expects " + what +
                                ", got '" + *v + "'");
  }
  return *out;
}

}  // namespace

std::int64_t ArgParser::get_int_or(const std::string& name,
                                   std::int64_t fallback) const {
  return number_or(get(name), name, fallback, parse_int, "an integer");
}

double ArgParser::get_double_or(const std::string& name, double fallback) const {
  return number_or(get(name), name, fallback, parse_real, "a number");
}

bool ArgParser::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (!queried_.count(name)) out.push_back(name);
  }
  return out;
}

}  // namespace tfpe::util
