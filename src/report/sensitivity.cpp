#include "report/sensitivity.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace tfpe::report {

namespace {

double optimal_time(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys,
                    const search::SearchOptions& opts) {
  const auto r = search::find_optimal(mdl, sys, opts);
  if (!r.best.feasible) return std::nan("");
  return r.best.iteration();
}

}  // namespace

std::vector<Sensitivity> hardware_sensitivities(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const search::SearchOptions& opts, double step) {
  if (step <= 0 || step >= 1) {
    throw std::invalid_argument("hardware_sensitivities: step in (0,1)");
  }

  struct Knob {
    const char* name;
    std::function<void(hw::SystemConfig&, double)> scale;
  };
  const std::vector<Knob> knobs = {
      {"tensor_flops",
       [](hw::SystemConfig& s, double f) { s.gpu.tensor_flops *= f; }},
      {"vector_flops",
       [](hw::SystemConfig& s, double f) { s.gpu.vector_flops *= f; }},
      {"hbm_bandwidth",
       [](hw::SystemConfig& s, double f) { s.gpu.hbm_bandwidth *= f; }},
      {"hbm_capacity",
       [](hw::SystemConfig& s, double f) { s.gpu.hbm_capacity *= f; }},
      {"nvs_bandwidth",
       [](hw::SystemConfig& s, double f) { s.net.nvs_bandwidth *= f; }},
      {"ib_bandwidth",
       [](hw::SystemConfig& s, double f) { s.net.ib_bandwidth *= f; }},
  };

  std::vector<Sensitivity> out;
  out.reserve(knobs.size());
  for (const Knob& knob : knobs) {
    hw::SystemConfig up = sys, down = sys;
    knob.scale(up, 1.0 + step);
    knob.scale(down, 1.0 - step);
    const double t_up = optimal_time(mdl, up, opts);
    const double t_down = optimal_time(mdl, down, opts);
    Sensitivity s;
    s.parameter = knob.name;
    if (std::isnan(t_up) || std::isnan(t_down)) {
      s.elasticity = std::nan("");
    } else {
      // Central difference in log-log space.
      s.elasticity = (std::log(t_up) - std::log(t_down)) /
                     (std::log(1.0 + step) - std::log(1.0 - step));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace tfpe::report
