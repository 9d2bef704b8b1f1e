#include "io/plan_io.hpp"

#include <fstream>
#include <stdexcept>

#include "util/units.hpp"

namespace tfpe::io {

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
