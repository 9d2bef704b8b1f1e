#include "io/args.hpp"

#include <stdexcept>

namespace tfpe::io {

ArgParser::ArgParser(const std::vector<Row>& rows, int argc,
                     const char* const* argv)
    : rows_(rows) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    const std::string name = body.substr(0, eq);
    const bool flag_switch = row(name) && row(name)->kind == Kind::kBool;
    if (eq != std::string::npos) {
      if (flag_switch) {
        throw std::invalid_argument("flag --" + name + " takes no value");
      }
      flags_[name] = body.substr(eq + 1);
    } else if (!flag_switch && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];  // "--flag value"
    } else {
      flags_[name] = "";
    }
  }
}

const Row* ArgParser::row(const std::string& name) const {
  for (const Row& r : rows_) {
    if (r.flag && name == r.flag) return &r;
  }
  return nullptr;
}

std::optional<std::string> ArgParser::get(const std::string& name) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  if (it->second.empty()) {
    throw std::invalid_argument("flag --" + name + " expects a value");
  }
  return it->second;
}

bool ArgParser::has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::optional<Value> ArgParser::given(const std::string& name) const {
  const Row* r = row(name);
  if (!r) throw std::logic_error("undeclared flag --" + name);
  const auto text = get(name);
  return text ? std::optional(read_flag(*r, *text)) : std::nullopt;
}

Value ArgParser::value(const std::string& name) const {
  const auto v = given(name);
  const Row& r = *row(name);
  return v ? *v : r.fallback ? read_flag(r, r.fallback) : Value{};
}

Section ArgParser::record(const ConfigSections& sections,
                          const std::string& name) const {
  const auto it = sections.find(name);
  Section s = it != sections.end() ? it->second : Section{};
  for (const Row& r : find_schema(name)->rows) {
    const auto text = r.flag ? get(r.flag) : std::nullopt;
    if (text) s[r.key] = read_flag(r, *text).text;
  }
  return s;
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& flag : flags_) {
    if (!queried_.count(flag.first)) out.push_back(flag.first);
  }
  return out;
}

}  // namespace tfpe::io
