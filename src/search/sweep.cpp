#include "search/sweep.hpp"

#include <algorithm>
#include <utility>

#include "search/codesign.hpp"

namespace tfpe::search {

SweepResult run_sweep(const model::TransformerConfig& mdl,
                      const std::vector<hw::SystemConfig>& points,
                      const SweepOptions& opts) {
  CodesignResult run = run_codesign({mdl}, points, CodesignOptions{opts});
  SweepResult out;
  out.best = std::move(run.per_shape[0]);
  out.evaluated_per_point = std::move(run.evaluated[0]);
  out.stats = run.stats;  // the scan-level SweepStats slice
  return out;
}

std::vector<hw::SystemConfig> hardware_grid(
    const std::vector<hw::GpuGeneration>& gens,
    const std::vector<std::int64_t>& nvs_domains, std::int64_t n_gpus,
    const std::vector<double>& oversubscriptions, std::int64_t leaf_size) {
  std::vector<hw::SystemConfig> grid;
  grid.reserve(gens.size() * nvs_domains.size() * oversubscriptions.size());
  for (hw::GpuGeneration gen : gens) {
    for (std::int64_t nvs : nvs_domains) {
      for (double oversub : oversubscriptions) {
        hw::SystemConfig sys = hw::make_system(gen, nvs, n_gpus);
        if (oversub > 1.0) {
          const std::int64_t leaf =
              std::max(nvs, leaf_size - leaf_size % std::max<std::int64_t>(
                                                        nvs, 1));
          sys.fabric =
              hw::leaf_spine_topology(sys.net, nvs, leaf, n_gpus, oversub);
        }
        grid.push_back(std::move(sys));
      }
    }
  }
  return grid;
}

}  // namespace tfpe::search
