// Global-batch scaling study: how does the optimal configuration and the
// per-token cost change with the global batch size at a fixed cluster?
//
// Larger batches feed the pipeline more microbatches (shrinking the bubble
// fraction) and amortize the DP collectives, but a production run cannot
// grow b arbitrarily (optimization quality). This example quantifies the
// systems side of that trade for GPT3-1T on 4096 B200, plus the fastest
// plan under a few HBM budgets at the paper's batch size.
//
// Usage: batch_scaling [n_gpus]

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "report/breakdown_report.hpp"
#include "search/search.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace tfpe;

  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 4096;
  const model::TransformerConfig mdl = model::gpt3_1t();
  const hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, n);

  util::TextTable t;
  t.set_header({"batch", "best config", "iter", "tokens/s/GPU", "bubble %"});
  for (std::int64_t b = 512; b <= 16384; b *= 2) {
    search::SearchOptions opts;
    opts.strategy = parallel::TpStrategy::TP1D;
    opts.global_batch = b;
    const auto r = search::find_optimal(mdl, sys, opts).best;
    if (!r.feasible) {
      t.add_row({std::to_string(b), "infeasible: " + r.reason, "-", "-", "-"});
      continue;
    }
    const double tps = static_cast<double>(b) *
                       static_cast<double>(mdl.seq_len) / r.iteration() /
                       static_cast<double>(n);
    t.add_row({std::to_string(b), r.cfg.describe(),
               util::format_time(r.iteration()), util::format_fixed(tps, 0),
               util::format_fixed(100.0 * r.time.bubble / r.iteration(), 1)});
  }
  std::cout << "Global-batch scaling of " << mdl.name << " on "
            << sys.describe() << "\n";
  t.print(std::cout);

  // HBM capacity decides only feasibility, so the search at a capacity of
  // X is the fastest plan using at most X (ties going to the lighter one).
  std::cout << "\nFastest plan under an HBM budget at b=4096:\n";
  search::SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  std::vector<report::LabeledResult> rows;
  for (const double share : {1.0, 0.4, 0.3, 0.25, 0.2}) {
    hw::SystemConfig budget = sys;
    budget.gpu.hbm_capacity = sys.gpu.hbm_capacity * share;
    const std::string label =
        "<= " + util::format_fixed(budget.gpu.hbm_capacity.value() / 1e9, 0) +
        " GB";
    const auto r = search::find_optimal(mdl, budget, opts).best;
    if (r.feasible) {
      rows.push_back({label, r});
    } else {
      std::cout << label << ": " << r.reason << "\n";
    }
  }
  report::print_config_panel(std::cout, rows);
  report::print_time_panel(std::cout, rows);
  return 0;
}
