#include "io/config_file.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/units.hpp"

namespace tfpe::io {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::int64_t to_int(const Section& s, const std::string& key,
                    std::int64_t fallback) {
  const auto it = s.find(key);
  if (it == s.end()) return fallback;
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::runtime_error("config: '" + key + "' expects an integer, got '" +
                             it->second + "'");
  }
  return v;
}

double to_double(const Section& s, const std::string& key, double fallback) {
  const auto it = s.find(key);
  if (it == s.end()) return fallback;
  std::size_t pos = 0;
  const double v = std::stod(it->second, &pos);
  if (pos != it->second.size()) {
    throw std::runtime_error("config: '" + key + "' expects a number, got '" +
                             it->second + "'");
  }
  return v;
}

void reject_unknown(const Section& s, const std::set<std::string>& known,
                    const std::string& section) {
  for (const auto& [key, value] : s) {
    (void)value;
    if (!known.count(key)) {
      throw std::runtime_error("config: unknown key '" + key + "' in [" +
                               section + "]");
    }
  }
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) out.push_back(trim(item));
  return out;
}

/// Per-level list of doubles: missing key -> `n` copies of `fallback`;
/// present key must have exactly `n` comma-separated entries.
std::vector<double> double_list(const Section& s, const std::string& key,
                                std::size_t n, double fallback) {
  const auto it = s.find(key);
  if (it == s.end()) return std::vector<double>(n, fallback);
  const auto items = split_list(it->second);
  if (items.size() != n) {
    throw std::runtime_error("config: '" + key + "' has " +
                             std::to_string(items.size()) + " entries, [" +
                             "topology] declares " + std::to_string(n) +
                             " levels");
  }
  std::vector<double> out;
  out.reserve(n);
  for (const auto& item : items) {
    std::size_t pos = 0;
    double v = 0;
    try {
      v = std::stod(item, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != item.size()) {
      throw std::runtime_error("config: '" + key + "' expects numbers, got '" +
                               item + "'");
    }
    out.push_back(v);
  }
  return out;
}

/// Variable-length comma-separated integer list; missing key -> fallback.
std::vector<std::int64_t> int_list(const Section& s, const std::string& key,
                                   std::vector<std::int64_t> fallback) {
  const auto it = s.find(key);
  if (it == s.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& item : split_list(it->second)) {
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
      v = std::stoll(item, &pos);
    } catch (const std::exception&) {
      pos = std::string::npos;
    }
    if (pos != item.size()) {
      throw std::runtime_error("config: '" + key +
                               "' expects integers, got '" + item + "'");
    }
    out.push_back(v);
  }
  return out;
}

std::string join_list(const std::vector<double>& values) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out << ", ";
    out << values[i];
  }
  return out.str();
}

}  // namespace

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
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw std::runtime_error("config line " + std::to_string(lineno) +
                                 ": unterminated section header");
      }
      current = trim(line.substr(1, line.size() - 2));
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
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("config line " + std::to_string(lineno) +
                               ": empty key");
    }
    sections[current][key] = value;
    if (locations) (*locations)[current].keys[key] = lineno;
  }
  return sections;
}

model::TransformerConfig model_from_section(const Section& s) {
  reject_unknown(s,
                 {"name", "seq_len", "embed", "heads", "depth", "hidden",
                  "kv_heads", "vocab", "attention", "window", "moe_experts",
                  "moe_top_k", "preset"},
                 "model");
  if (const auto it = s.find("preset"); it != s.end()) {
    const auto preset = model::preset_by_name(it->second);
    if (!preset) {
      throw std::runtime_error("config: unknown model preset '" + it->second +
                               "'");
    }
    return *preset;
  }
  model::TransformerConfig m;
  const auto name = s.find("name");
  m.name = name != s.end() ? name->second : "custom";
  m.seq_len = to_int(s, "seq_len", 0);
  m.embed = to_int(s, "embed", 0);
  m.heads = to_int(s, "heads", 0);
  m.depth = to_int(s, "depth", 0);
  m.hidden = to_int(s, "hidden", 4 * m.embed);
  m.kv_heads = to_int(s, "kv_heads", 0);
  m.vocab = to_int(s, "vocab", 0);
  m.window = to_int(s, "window", 0);
  m.moe_experts = to_int(s, "moe_experts", 0);
  m.moe_top_k = to_int(s, "moe_top_k", 2);
  if (const auto it = s.find("attention"); it != s.end()) {
    if (it->second == "full") m.attention = model::AttentionKind::kFull;
    else if (it->second == "windowed") m.attention = model::AttentionKind::kWindowed;
    else if (it->second == "linear") m.attention = model::AttentionKind::kLinear;
    else {
      throw std::runtime_error("config: unknown attention '" + it->second +
                               "' (full|windowed|linear)");
    }
  }
  try {
    m.validate();
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string("config: invalid [model]: ") +
                             e.what());
  }
  return m;
}

hw::SystemConfig system_from_section(const Section& s) {
  reject_unknown(s,
                 {"gpu", "tensor_tflops", "vector_tflops", "flops_latency",
                  "hbm_gb", "hbm_gbs", "nvs_gbs", "nvs_latency", "ib_gbs",
                  "ib_latency", "nics_per_gpu", "efficiency", "nvs_domain",
                  "n_gpus", "host_gbs", "enable_tree", "pod_size",
                  "oversubscription"},
                 "system");
  hw::GpuGeneration gen = hw::GpuGeneration::B200;
  if (const auto it = s.find("gpu"); it != s.end()) {
    const auto named = hw::generation_by_name(it->second);
    if (!named) {
      throw std::runtime_error("config: unknown gpu preset '" + it->second +
                               "' (a100|h200|b200)");
    }
    gen = *named;
  }
  hw::SystemConfig sys = hw::make_system(gen, 8, 1024);
  sys.gpu.tensor_flops = FlopsPerSec(
      to_double(s, "tensor_tflops", sys.gpu.tensor_flops.value() / 1e12) * 1e12);
  sys.gpu.vector_flops = FlopsPerSec(
      to_double(s, "vector_tflops", sys.gpu.vector_flops.value() / 1e12) * 1e12);
  sys.gpu.flops_latency =
      Seconds(to_double(s, "flops_latency", sys.gpu.flops_latency.value()));
  sys.gpu.hbm_capacity =
      Bytes(to_double(s, "hbm_gb", sys.gpu.hbm_capacity.value() / 1e9) * 1e9);
  sys.gpu.hbm_bandwidth = BytesPerSec(
      to_double(s, "hbm_gbs", sys.gpu.hbm_bandwidth.value() / 1e9) * 1e9);
  sys.net.nvs_bandwidth = BytesPerSec(
      to_double(s, "nvs_gbs", sys.net.nvs_bandwidth.value() / 1e9) * 1e9);
  sys.net.nvs_latency =
      Seconds(to_double(s, "nvs_latency", sys.net.nvs_latency.value()));
  sys.net.ib_bandwidth = BytesPerSec(
      to_double(s, "ib_gbs", sys.net.ib_bandwidth.value() / 1e9) * 1e9);
  sys.net.ib_latency =
      Seconds(to_double(s, "ib_latency", sys.net.ib_latency.value()));
  sys.net.nics_per_gpu = to_double(s, "nics_per_gpu", sys.net.nics_per_gpu);
  sys.net.efficiency = to_double(s, "efficiency", sys.net.efficiency);
  sys.net.enable_tree = to_int(s, "enable_tree", 0) != 0;
  sys.net.pod_size = to_int(s, "pod_size", 0);
  sys.net.oversubscription = to_double(s, "oversubscription", 1.0);
  sys.nvs_domain = to_int(s, "nvs_domain", sys.nvs_domain);
  sys.n_gpus = to_int(s, "n_gpus", sys.n_gpus);
  sys.host_bandwidth = BytesPerSec(
      to_double(s, "host_gbs", sys.host_bandwidth.value() / 1e9) * 1e9);
  return sys;
}

hw::Topology topology_from_section(const Section& s) {
  reject_unknown(s,
                 {"levels", "fan_in", "latency_us", "gbs", "rails", "pod_size",
                  "oversubscription", "efficiency", "enable_tree", "enable_ll",
                  "ll_latency_scale", "ll_bandwidth_scale",
                  "enable_hierarchical"},
                 "topology");
  const auto lv = s.find("levels");
  if (lv == s.end()) {
    throw std::runtime_error("config: [topology] requires 'levels'");
  }
  const std::vector<std::string> names = split_list(lv->second);
  const std::size_t n = names.size();
  if (n == 0) {
    throw std::runtime_error("config: [topology] 'levels' is empty");
  }
  if (n > hw::Topology::kMaxDepth) {
    throw std::runtime_error(
        "config: [topology] has " + std::to_string(n) + " levels, at most " +
        std::to_string(hw::Topology::kMaxDepth) + " supported");
  }
  const auto fan = double_list(s, "fan_in", n, 1.0);
  const auto latency_us = double_list(s, "latency_us", n, 0.0);
  const auto gbs = double_list(s, "gbs", n, 0.0);
  const auto rails = double_list(s, "rails", n, 1.0);
  const auto pods = double_list(s, "pod_size", n, 0.0);
  const auto oversub = double_list(s, "oversubscription", n, 1.0);
  if (s.find("gbs") == s.end()) {
    throw std::runtime_error("config: [topology] requires 'gbs'");
  }

  hw::Topology topo;
  topo.efficiency = to_double(s, "efficiency", topo.efficiency);
  topo.enable_tree = to_int(s, "enable_tree", 0) != 0;
  topo.enable_ll = to_int(s, "enable_ll", 0) != 0;
  topo.ll_latency_scale =
      to_double(s, "ll_latency_scale", topo.ll_latency_scale);
  topo.ll_bandwidth_scale =
      to_double(s, "ll_bandwidth_scale", topo.ll_bandwidth_scale);
  topo.enable_hierarchical = to_int(s, "enable_hierarchical", 0) != 0;
  for (std::size_t i = 0; i < n; ++i) {
    hw::FabricLevel level;
    level.name = names[i];
    level.fan_in = static_cast<std::int64_t>(fan[i]);
    level.latency = Seconds(latency_us[i] * 1e-6);
    level.bandwidth = BytesPerSec(gbs[i] * 1e9);
    level.rails = rails[i];
    level.pod_size = static_cast<std::int64_t>(pods[i]);
    level.oversubscription = oversub[i];
    if (level.name.empty()) {
      throw std::runtime_error("config: [topology] level " +
                               std::to_string(i) + " has an empty name");
    }
    if (!(level.bandwidth > BytesPerSec(0))) {
      throw std::runtime_error("config: [topology] level '" + level.name +
                               "' needs a positive bandwidth");
    }
    if (level.latency < Seconds(0)) {
      throw std::runtime_error("config: [topology] level '" + level.name +
                               "' has a negative latency");
    }
    if (!(level.rails > 0.0)) {
      throw std::runtime_error("config: [topology] level '" + level.name +
                               "' needs positive rails");
    }
    if (level.oversubscription < 1.0) {
      throw std::runtime_error("config: [topology] level '" + level.name +
                               "' has oversubscription < 1");
    }
    topo.levels.push_back(level);
  }
  return topo;
}

Section topology_to_section(const hw::Topology& topo) {
  Section s;
  std::vector<double> fan, latency_us, gbs, rails, pods, oversub;
  std::string names;
  for (std::size_t i = 0; i < topo.levels.size(); ++i) {
    const hw::FabricLevel& lvl = topo.levels[i];
    if (i) names += ", ";
    names += lvl.name;
    fan.push_back(static_cast<double>(lvl.fan_in));
    latency_us.push_back(lvl.latency.value() * 1e6);
    gbs.push_back(lvl.bandwidth.value() / 1e9);
    rails.push_back(lvl.rails);
    pods.push_back(static_cast<double>(lvl.pod_size));
    oversub.push_back(lvl.oversubscription);
  }
  s["levels"] = names;
  s["fan_in"] = join_list(fan);
  s["latency_us"] = join_list(latency_us);
  s["gbs"] = join_list(gbs);
  s["rails"] = join_list(rails);
  s["pod_size"] = join_list(pods);
  s["oversubscription"] = join_list(oversub);
  s["efficiency"] = join_list({topo.efficiency});
  s["enable_tree"] = topo.enable_tree ? "1" : "0";
  s["enable_ll"] = topo.enable_ll ? "1" : "0";
  s["ll_latency_scale"] = join_list({topo.ll_latency_scale});
  s["ll_bandwidth_scale"] = join_list({topo.ll_bandwidth_scale});
  s["enable_hierarchical"] = topo.enable_hierarchical ? "1" : "0";
  return s;
}

model::ShapeFamilyOptions codesign_from_section(const Section& s) {
  reject_unknown(s,
                 {"target_params_b", "tolerance", "depths", "depth_min",
                  "depth_max", "depth_step", "heads", "heads_min", "heads_max",
                  "heads_step", "head_dims", "aspect_min", "aspect_max",
                  "hidden_multiple", "kv_heads", "moe_experts"},
                 "codesign");
  model::ShapeFamilyOptions opts;
  const double billions = to_double(s, "target_params_b", 0.0);
  if (billions < 0.0) {
    throw std::runtime_error(
        "config: [codesign] target_params_b must be >= 0 (0 = the [model]'s "
        "own total)");
  }
  opts.target_params = static_cast<std::int64_t>(billions * 1e9);
  opts.tolerance = to_double(s, "tolerance", opts.tolerance);
  if (!(opts.tolerance > 0.0) || !(opts.tolerance < 1.0)) {
    throw std::runtime_error(
        "config: [codesign] tolerance must lie in (0, 1)");
  }
  opts.depths = int_list(s, "depths", {});
  opts.depth_min = to_int(s, "depth_min", opts.depth_min);
  opts.depth_max = to_int(s, "depth_max", opts.depth_max);
  opts.depth_step = to_int(s, "depth_step", opts.depth_step);
  opts.heads = int_list(s, "heads", {});
  opts.heads_min = to_int(s, "heads_min", opts.heads_min);
  opts.heads_max = to_int(s, "heads_max", opts.heads_max);
  opts.heads_step = to_int(s, "heads_step", opts.heads_step);
  opts.head_dims = int_list(s, "head_dims", opts.head_dims);
  opts.aspect_min = to_double(s, "aspect_min", opts.aspect_min);
  opts.aspect_max = to_double(s, "aspect_max", opts.aspect_max);
  opts.hidden_multiple = to_int(s, "hidden_multiple", opts.hidden_multiple);
  opts.kv_heads = int_list(s, "kv_heads", opts.kv_heads);
  opts.moe_experts = int_list(s, "moe_experts", opts.moe_experts);
  // Re-run shape_family's own axis validation so a bad section fails here,
  // at load time, not later inside the search. A tiny probe base is enough:
  // validation happens before any shape is generated.
  try {
    (void)model::shape_family(model::gpt3_175b(), opts);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("config: [codesign] ") + e.what());
  }
  return opts;
}

core::ServingSpec serving_from_section(const Section& s) {
  reject_unknown(s,
                 {"prompt_len", "output_len", "tp", "pp", "batch",
                  "kv_cap_fraction", "max_batch"},
                 "serving");
  core::ServingSpec spec;
  spec.prompt_len = to_int(s, "prompt_len", spec.prompt_len);
  spec.output_len = to_int(s, "output_len", spec.output_len);
  spec.tp = int_list(s, "tp", spec.tp);
  spec.pp = int_list(s, "pp", spec.pp);
  spec.batch = int_list(s, "batch", spec.batch);
  spec.kv_cap_fraction = to_double(s, "kv_cap_fraction", spec.kv_cap_fraction);
  spec.max_batch = to_int(s, "max_batch", spec.max_batch);
  if (spec.prompt_len < 1 || spec.output_len < 1) {
    throw std::runtime_error(
        "config: [serving] prompt_len and output_len must be >= 1");
  }
  if (!(spec.kv_cap_fraction > 0.0) || spec.kv_cap_fraction > 1.0) {
    throw std::runtime_error(
        "config: [serving] kv_cap_fraction must lie in (0, 1]");
  }
  if (spec.tp.empty() || spec.pp.empty() || spec.batch.empty()) {
    throw std::runtime_error(
        "config: [serving] tp, pp and batch lists must be non-empty");
  }
  for (const auto* axis : {&spec.tp, &spec.pp, &spec.batch}) {
    for (const std::int64_t v : *axis) {
      if (v < 1) {
        throw std::runtime_error(
            "config: [serving] tp/pp/batch entries must be >= 1");
      }
    }
  }
  if (spec.max_batch < 0) {
    throw std::runtime_error("config: [serving] max_batch must be >= 0");
  }
  return spec;
}

LoadedConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file " + path);
  const ConfigSections sections = parse_config(in);
  LoadedConfig out;
  if (const auto it = sections.find("model"); it != sections.end()) {
    out.model = model_from_section(it->second);
  }
  if (const auto it = sections.find("system"); it != sections.end()) {
    out.system = system_from_section(it->second);
  }
  if (const auto it = sections.find("topology"); it != sections.end()) {
    out.topology = topology_from_section(it->second);
    if (out.system) out.system->fabric = *out.topology;
  }
  if (const auto it = sections.find("codesign"); it != sections.end()) {
    out.codesign = codesign_from_section(it->second);
  }
  if (const auto it = sections.find("serving"); it != sections.end()) {
    out.serving = serving_from_section(it->second);
  }
  return out;
}

}  // namespace tfpe::io
