#include "io/plan_io.hpp"

#include <fstream>
#include <set>
#include <stdexcept>

#include "util/units.hpp"

namespace tfpe::io {

namespace {

std::int64_t require_int(const Section& s, const std::string& key) {
  const auto it = s.find(key);
  if (it == s.end()) {
    throw std::runtime_error("plan: missing key '" + key + "'");
  }
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(it->second, &pos);
  if (pos != it->second.size() || v < 1) {
    throw std::runtime_error("plan: '" + key + "' must be a positive integer");
  }
  return v;
}

std::int64_t optional_int(const Section& s, const std::string& key,
                          std::int64_t fallback) {
  return s.count(key) ? require_int(s, key) : fallback;
}

}  // namespace

void write_plan(std::ostream& os, const core::EvalResult& result,
                std::int64_t global_batch) {
  const auto& c = result.cfg;
  os << "# tfpe training plan: " << c.describe() << "\n";
  if (result.feasible) {
    os << "# iteration " << util::format_time(result.iteration()) << ", HBM "
       << util::format_bytes(result.mem.total()) << "\n";
  }
  os << "[plan]\n";
  os << "strategy = " << parallel::strategy_key(c.strategy) << "\n";
  os << "n1 = " << c.n1 << "\nn2 = " << c.n2 << "\nnp = " << c.np
     << "\nnd = " << c.nd << "\n";
  os << "microbatches = " << c.microbatches << "\n";
  if (c.nb != 1) os << "nb = " << c.nb << "\n";
  if (c.interleave != 1) os << "interleave = " << c.interleave << "\n";
  if (c.zero == parallel::ZeroStage::kWeights) os << "zero = 3\n";
  os << "nvs1 = " << c.nvs1 << "\nnvs2 = " << c.nvs2 << "\nnvsp = " << c.nvsp
     << "\nnvsd = " << c.nvsd << "\n";
  os << "global_batch = " << global_batch << "\n";
}

void write_plan_file(const std::string& path, const core::EvalResult& result,
                     std::int64_t global_batch) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_plan_file: cannot open " + path);
  write_plan(out, result, global_batch);
}

LoadedPlan plan_from_section(const Section& s) {
  const std::set<std::string> known{"strategy",     "n1",   "n2",   "np",
                                    "nd",           "microbatches", "nb",
                                    "interleave",   "zero", "nvs1", "nvs2",
                                    "nvsp",         "nvsd", "global_batch"};
  for (const auto& [key, value] : s) {
    (void)value;
    if (!known.count(key)) {
      throw std::runtime_error("plan: unknown key '" + key + "'");
    }
  }
  LoadedPlan plan;
  const auto strat = s.find("strategy");
  if (strat == s.end()) throw std::runtime_error("plan: missing strategy");
  const auto strategy = parallel::strategy_by_name(strat->second);
  if (!strategy) {
    throw std::runtime_error("plan: unknown strategy '" + strat->second + "'");
  }
  plan.cfg.strategy = *strategy;
  plan.cfg.n1 = require_int(s, "n1");
  plan.cfg.n2 = optional_int(s, "n2", 1);
  plan.cfg.np = require_int(s, "np");
  plan.cfg.nd = require_int(s, "nd");
  plan.cfg.microbatches = require_int(s, "microbatches");
  plan.cfg.nb = optional_int(s, "nb", 1);
  plan.cfg.interleave = optional_int(s, "interleave", 1);
  if (optional_int(s, "zero", 1) == 3) {
    plan.cfg.zero = parallel::ZeroStage::kWeights;
  }
  plan.cfg.nvs1 = optional_int(s, "nvs1", 1);
  plan.cfg.nvs2 = optional_int(s, "nvs2", 1);
  plan.cfg.nvsp = optional_int(s, "nvsp", 1);
  plan.cfg.nvsd = optional_int(s, "nvsd", 1);
  plan.global_batch = require_int(s, "global_batch");
  return plan;
}

LoadedPlan load_plan_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open plan file " + path);
  const ConfigSections sections = parse_config(in);
  const auto it = sections.find("plan");
  if (it == sections.end()) {
    throw std::runtime_error(path + " has no [plan] section");
  }
  return plan_from_section(it->second);
}

}  // namespace tfpe::io
