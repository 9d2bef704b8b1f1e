// Tests for the op-level roofline report, hardware sensitivities and the
// Chrome-trace exporter.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "report/op_report.hpp"
#include "report/sensitivity.hpp"
#include "sim/trace_export.hpp"

namespace tfpe {
namespace {

parallel::ParallelConfig fig1_optimum() {
  parallel::ParallelConfig c;
  c.strategy = parallel::TpStrategy::TP1D;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  c.microbatches = 128;
  c.nvs1 = 8;
  return c;
}

TEST(OpReport, ListsEveryOpWithBoundness) {
  std::ostringstream os;
  report::print_op_report(os, model::gpt3_1t(),
                          hw::make_system(hw::GpuGeneration::B200, 8, 16384),
                          fig1_optimum(), 4096);
  const std::string s = os.str();
  for (const char* op : {"ln1", "qkv_proj", "attention", "out_proj", "gelu",
                         "mlp_fc1", "mlp_fc2"}) {
    EXPECT_NE(s.find(op), std::string::npos) << op;
  }
  EXPECT_NE(s.find("compute"), std::string::npos);
  EXPECT_NE(s.find("memory"), std::string::npos);
  EXPECT_NE(s.find("block totals"), std::string::npos);
}

TEST(OpReport, RejectsInvalidConfig) {
  std::ostringstream os;
  auto cfg = fig1_optimum();
  cfg.np = 96;
  EXPECT_THROW(
      report::print_op_report(os, model::gpt3_1t(),
                              hw::make_system(hw::GpuGeneration::B200, 8, 16384),
                              cfg, 4096),
      std::invalid_argument);
}

search::SearchOptions search_opts(std::int64_t global_batch) {
  search::SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = global_batch;
  return opts;
}

TEST(Sensitivity, TensorFlopsDominateForGpt) {
  // Paper Fig. A5a: FLOP rate is the primary factor for GPT3-1T.
  const auto sens = report::hardware_sensitivities(
      model::gpt3_175b(), hw::make_system(hw::GpuGeneration::B200, 8, 256),
      search_opts(512));
  double tensor = 0, hbm_bw = 0;
  for (const auto& s : sens) {
    if (s.parameter == "tensor_flops") tensor = s.elasticity;
    if (s.parameter == "hbm_bandwidth") hbm_bw = s.elasticity;
  }
  EXPECT_LT(tensor, -0.4);           // strongly negative: faster cores help
  EXPECT_GT(hbm_bw, tensor);         // memory bandwidth matters less
  EXPECT_EQ(sens.size(), 6u);
}

TEST(Sensitivity, ElasticitiesAreNonPositive) {
  // More of any resource never slows the optimum down.
  const auto sens = report::hardware_sensitivities(
      model::gpt3_175b(), hw::make_system(hw::GpuGeneration::A100, 4, 128),
      search_opts(256));
  for (const auto& s : sens) {
    if (std::isnan(s.elasticity)) continue;
    EXPECT_LE(s.elasticity, 1e-9) << s.parameter;
  }
}

TEST(Sensitivity, RejectsBadStep) {
  // NaN fails every comparison, so it must be rejected as out of (0, 1),
  // not let through to NaN elasticities.
  for (const double bad : {1.5, 0.0, -0.25, std::nan("")}) {
    EXPECT_THROW(report::hardware_sensitivities(
                     model::gpt3_175b(),
                     hw::make_system(hw::GpuGeneration::B200, 8, 64),
                     search_opts(64), bad),
                 std::invalid_argument)
        << bad;
  }
}

/// The elasticities describe the plan that was searched: every re-search
/// runs under the caller's candidate space and modeling extensions (here
/// tp_overlap = 0.9), so each elasticity is, bit for bit, the central
/// difference of two independent find_optimal calls under those options —
/// not under the defaults. The engine knobs of a plan's SearchOptions
/// (top_k, threads) do not reach the re-searches, and change no optimum.
TEST(Sensitivity, ReSearchesUnderThePlanOptions) {
  const auto mdl = model::gpt3_175b();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 256);
  search::SearchOptions opts = search_opts(512);
  opts.eval.tp_overlap = 0.9;
  opts.top_k = 3;
  opts.threads = 2;
  const auto sens = report::hardware_sensitivities(mdl, sys, opts);

  using Scale = void (*)(hw::SystemConfig&, double);
  const std::vector<std::pair<const char*, Scale>> knobs = {
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
  const auto elasticity = [&](Scale scale, search::SearchOptions o) {
    o.top_k = 0;
    o.threads = 1;
    hw::SystemConfig up = sys, down = sys;
    scale(up, 1.25);
    scale(down, 0.75);
    const auto t_up = search::find_optimal(mdl, up, o).best;
    const auto t_down = search::find_optimal(mdl, down, o).best;
    if (!t_up.feasible || !t_down.feasible) return std::nan("");
    return (std::log(t_up.iteration()) - std::log(t_down.iteration())) /
           (std::log(1.25) - std::log(0.75));
  };

  ASSERT_EQ(sens.size(), knobs.size());
  for (std::size_t k = 0; k < knobs.size(); ++k) {
    ASSERT_EQ(sens[k].parameter, knobs[k].first);
    const double want = elasticity(knobs[k].second, opts);
    ASSERT_FALSE(std::isnan(want)) << knobs[k].first;
    EXPECT_EQ(sens[k].elasticity, want) << knobs[k].first;
  }
  EXPECT_NE(sens[4].elasticity,
            elasticity(knobs[4].second, search_opts(512)));
}

TEST(ChromeTrace, EmitsOneEventPerTask) {
  const auto trace = sim::simulate_pipeline({4, 8, Seconds(1.0), Seconds(2.0), Seconds(0.1)});
  ASSERT_EQ(trace.tasks.size(), 4u * 16u);
  std::ostringstream os;
  sim::write_chrome_trace(os, trace);
  const std::string s = os.str();
  // JSON array with one "ph": "X" event per task.
  std::size_t events = 0, pos = 0;
  while ((pos = s.find("\"ph\": \"X\"", pos)) != std::string::npos) {
    ++events;
    ++pos;
  }
  EXPECT_EQ(events, trace.tasks.size());
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"tid\": 3"), std::string::npos);  // last stage present
  EXPECT_NE(s.find("\"name\": \"B7\""), std::string::npos);
}

TEST(ChromeTrace, TasksAreConsistentWithSchedule) {
  const auto trace = sim::simulate_pipeline({2, 4, Seconds(1.0), Seconds(1.0), Seconds(0.0)});
  for (const auto& t : trace.tasks) {
    EXPECT_GE(t.start, 0.0);
    EXPECT_GT(t.end, t.start);
    EXPECT_LE(t.end, trace.completion_time + 1e-12);
  }
  // Forward of microbatch 0 on stage 1 starts only after stage 0 finishes it.
  double f0_s0_end = -1, f0_s1_start = -1;
  for (const auto& t : trace.tasks) {
    if (!t.backward && t.microbatch == 0 && t.stage == 0) f0_s0_end = t.end;
    if (!t.backward && t.microbatch == 0 && t.stage == 1) f0_s1_start = t.start;
  }
  EXPECT_GE(f0_s1_start, f0_s0_end);
}

TEST(ChromeTrace, FileWriter) {
  const auto trace = sim::simulate_pipeline({2, 2, Seconds(1.0), Seconds(1.0), Seconds(0.0)});
  const std::string path = "tfpe_trace_test.json";
  sim::write_chrome_trace_file(path, trace);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
  EXPECT_THROW(sim::write_chrome_trace_file("/nonexistent/dir/x.json", trace),
               std::runtime_error);
}

}  // namespace
}  // namespace tfpe
