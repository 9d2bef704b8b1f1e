#include "report/sensitivity.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

#include "search/sweep.hpp"

namespace tfpe::report {

std::vector<Sensitivity> hardware_sensitivities(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const search::ScanOptions& opts, double step) {
  if (!(step > 0 && step < 1)) {
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

  // Each knob's up and down design, adjacent. They keep the GPU name and
  // count, so the scan runs them as one chain sharing tails and blocks.
  std::vector<hw::SystemConfig> points;
  points.reserve(2 * knobs.size());
  for (const Knob& knob : knobs) {
    for (const double f : {1.0 + step, 1.0 - step}) {
      knob.scale(points.emplace_back(sys), f);
    }
  }
  const search::SweepResult run =
      search::run_sweep(mdl, points, search::SweepOptions{opts});

  std::vector<Sensitivity> out;
  out.reserve(knobs.size());
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    const core::EvalResult& up = run.best[2 * k];
    const core::EvalResult& down = run.best[2 * k + 1];
    Sensitivity s;
    s.parameter = knobs[k].name;
    if (!up.feasible || !down.feasible) {
      s.elasticity = std::nan("");
    } else {
      // Central difference in log-log space.
      s.elasticity = (std::log(up.iteration()) - std::log(down.iteration())) /
                     (std::log(1.0 + step) - std::log(1.0 - step));
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace tfpe::report
