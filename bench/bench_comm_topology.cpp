// A/B benchmark of the hierarchical topology layer: the pluggable
// collective model walking a two-level NVS+IB fabric against three-level
// leaf/spine and rail-optimized variants, at two granularities:
//
//  * the collective_time hot path itself (the per-candidate cost of the
//    placement scan) over a mixed pool of collectives/volumes/groups;
//  * the full two-phase evaluation (the SoA bind, bind_block +
//    finish_bind, plus a one-placement time_placements_batch call) of the
//    GPT3-1T paper optimum with each fabric attached to the system.
//
// The driver times each fabric with min-of-N repeats, writes
// BENCH_comm.json, and asserts (exit 1 otherwise) that the degenerate
// leaf/spine preset (leaf = nvs, no oversubscription) reproduces the
// two-level iteration time bitwise — the golden-equivalence contract the
// topology refactor is built on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "comm/collective_algorithm.hpp"
#include "core/batched_signature.hpp"
#include "hw/topology.hpp"

namespace {

using namespace tfpe;

constexpr std::int64_t kGpus = 16384;
constexpr std::int64_t kBatch = 4096;

struct Fabric {
  std::string name;
  hw::Topology topo;
};

std::vector<Fabric> fabrics() {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  return {
      {"two_level", hw::two_level_topology(net, 8, kGpus)},
      {"leaf_spine_degenerate", hw::leaf_spine_topology(net, 8, 8, kGpus, 1.0)},
      {"leaf_spine", hw::leaf_spine_topology(net, 8, 64, kGpus, 1.0)},
      {"leaf_spine_oversub4",
       hw::leaf_spine_topology(net, 8, 64, kGpus, 4.0)},
      {"rail_optimized", hw::rail_optimized_topology(net, 8, 64, kGpus)},
  };
}

struct Request {
  ops::Collective coll;
  Bytes bytes;
  comm::GroupPlacement group;
};

// The mix a placement scan actually issues: TP collectives per block, PP
// boundary sends, DP gradient reductions, across the volume range.
std::vector<Request> request_pool() {
  std::vector<Request> pool;
  for (double v : {1e5, 1e7, 1e9}) {
    for (std::int64_t size : {8, 64, 512}) {
      pool.push_back({ops::Collective::AllGather, Bytes(v), {size, 8}});
      pool.push_back({ops::Collective::ReduceScatter, Bytes(v), {size, 8}});
      pool.push_back({ops::Collective::AllReduce, Bytes(v), {size, 8}});
    }
    pool.push_back({ops::Collective::PointToPoint, Bytes(v), {2, 1}});
  }
  return pool;
}

double drain_pool(const hw::Topology& topo, const std::vector<Request>& pool) {
  double acc = 0;
  for (const Request& r : pool) {
    acc += comm::collective_time(topo, r.coll, r.bytes, r.group).value();
  }
  return acc;
}

parallel::ParallelConfig paper_optimum() {
  parallel::ParallelConfig c;
  c.strategy = parallel::TpStrategy::TP1D;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  c.microbatches = 128;
  c.nvs1 = 8;
  return c;
}

void BM_CollectiveTime(benchmark::State& state) {
  const auto all = fabrics();
  const Fabric& f = all[static_cast<std::size_t>(state.range(0))];
  const auto pool = request_pool();
  for (auto _ : state) {
    benchmark::DoNotOptimize(drain_pool(f.topo, pool));
  }
  state.SetLabel(f.name);
  state.counters["requests"] = static_cast<double>(pool.size());
}
BENCHMARK(BM_CollectiveTime)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

/// The paper optimum's own placement, as the kernel's placement list.
std::vector<std::array<std::int64_t, 4>> own_placement(
    const parallel::ParallelConfig& cfg) {
  return {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}};
}

void BM_TimePlacementsBatch(benchmark::State& state) {
  const auto all = fabrics();
  const Fabric& f = all[static_cast<std::size_t>(state.range(0))];
  const auto mdl = model::gpt3_1t();
  const auto cfg = paper_optimum();
  hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, kGpus);
  sys.fabric = f.topo;
  const auto sig = core::compile_signature(mdl, cfg, kBatch);
  const auto bat = core::lower_batched(sig);
  const auto base = core::bind_system_batched(sig, bat, sys);
  const auto placements = own_placement(cfg);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> out;
  for (auto _ : state) {
    core::time_placements_batch(sig, bat, base, sys, cfg, placements, {}, out,
                                &scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(f.name);
}
BENCHMARK(BM_TimePlacementsBatch)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);

struct Sample {
  std::string fabric;
  std::size_t depth = 0;
  double collective_ns = 0;   ///< Per collective_time call.
  double placement_us = 0;    ///< Per one-placement kernel call.
  double bind_us = 0;         ///< Per bind_block + finish_bind.
  double iteration = 0;       ///< Timed iteration at the paper optimum.
};

template <typename F>
double min_of_n(int reps, int inner, F&& body) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) body();
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, sec / inner);
  }
  return best;
}

void write_json(const std::vector<Sample>& samples, bool identical,
                const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"model\": \"GPT3-1T\",\n  \"global_batch\": " << kBatch
     << ",\n  \"n_gpus\": " << kGpus
     << ",\n  \"degenerate_bitwise_identical\": "
     << (identical ? "true" : "false") << ",\n  \"fabrics\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    os << "    {\"fabric\": \"" << s.fabric << "\""
       << ", \"depth\": " << s.depth
       << ", \"collective_time_ns\": " << s.collective_ns
       << ", \"bind_us\": " << s.bind_us
       << ", \"time_placements_batch_us\": " << s.placement_us
       << ", \"iteration_s\": " << s.iteration << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int run_driver() {
  const auto mdl = model::gpt3_1t();
  const auto cfg = paper_optimum();
  const auto pool = request_pool();
  const auto sig = core::compile_signature(mdl, cfg, kBatch);
  const auto bat = core::lower_batched(sig);
  const auto placements = own_placement(cfg);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> timed;

  std::vector<Sample> samples;
  for (const Fabric& f : fabrics()) {
    hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, kGpus);
    sys.fabric = f.topo;
    const auto base = core::bind_system_batched(sig, bat, sys);

    Sample s;
    s.fabric = f.name;
    s.depth = f.topo.levels.size();
    s.collective_ns =
        min_of_n(5, 200, [&] {
          benchmark::DoNotOptimize(drain_pool(f.topo, pool));
        }) /
        static_cast<double>(pool.size()) * 1e9;
    core::SystemTiming bound;
    s.bind_us = min_of_n(5, 50, [&] {
                  core::finish_bind(core::bind_block(bat, sys), sig, sys,
                                    bound);
                  benchmark::DoNotOptimize(bound);
                }) *
                1e6;
    s.placement_us = min_of_n(5, 200, [&] {
                       core::time_placements_batch(sig, bat, base, sys, cfg,
                                                   placements, {}, timed,
                                                   &scratch);
                       benchmark::DoNotOptimize(timed);
                     }) *
                     1e6;
    s.iteration = sig.mem.total() > sys.gpu.hbm_capacity
                      ? -1.0
                      : timed.front().time.total();
    samples.push_back(s);
    std::cout << s.fabric << " depth=" << s.depth
              << "  collective_time=" << s.collective_ns << "ns"
              << "  bind=" << s.bind_us << "us"
              << "  time_placements_batch=" << s.placement_us << "us"
              << "  iteration=" << s.iteration << "s\n";
  }

  // The degenerate leaf/spine preset must reproduce the two-level fabric
  // bitwise — same contract the ablation smoke test enforces grid-wide.
  const bool identical = samples[0].iteration == samples[1].iteration;
  write_json(samples, identical, "BENCH_comm.json");
  std::cout << "wrote BENCH_comm.json\n";
  if (!identical) {
    std::cerr << "degenerate leaf/spine diverged from the two-level fabric: "
              << samples[0].iteration << " vs " << samples[1].iteration
              << "\n";
    return 1;
  }
  std::cout << "degenerate leaf/spine bitwise identical to two-level\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--driver` (or no google-benchmark flags) runs the A/B driver that
  // emits BENCH_comm.json; benchmark flags run the registered cases.
  const bool no_args = argc == 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--driver") return run_driver();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (no_args) return run_driver();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
