#include "io/config_file.hpp"

#include <fstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace tfpe::io {

ConfigSections parse_config(std::istream& in) {
  return parse_config(in, nullptr);
}

ConfigSections parse_config(std::istream& in, ConfigLocations* locations) {
  ConfigSections sections;
  std::string line;
  std::string current = "";
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = util::trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config line " + std::to_string(lineno) +
                                 ": unterminated section header");
      }
      current = util::trim(line.substr(1, line.size() - 2));
      sections[current];
      if (locations && !(*locations).count(current)) {
        (*locations)[current].line = lineno;
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": expected 'key = value'");
    }
    const std::string key = util::trim(line.substr(0, eq));
    const std::string value = util::trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": empty key");
    }
    sections[current][key] = value;
    if (locations) (*locations)[current].keys[key] = lineno;
  }
  return sections;
}

LoadedConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file " + path);
  LoadedConfig out;
  out.sections = parse_config(in);
  const auto section = [&](const std::string& name) {
    const auto it = out.sections.find(name);
    return it == out.sections.end() ? nullptr : &it->second;
  };
  if (const Section* s = section("model")) out.model = model_from_section(*s);
  if (const Section* s = section("system")) {
    out.system = system_from_section(*s);
  }
  if (const Section* s = section("topology")) {
    out.topology = topology_from_section(*s);
    if (out.system) out.system->fabric = *out.topology;
  }
  return out;
}

}  // namespace tfpe::io
