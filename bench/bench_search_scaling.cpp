// A/B benchmark of the S3 search engines: the prune-and-memoize
// branch-and-bound (SearchOptions::prune = true, the default) against the
// exhaustive brute-force sweep, on the full GPT3-1T search at several
// machine sizes.
//
// Two outputs:
//  * google-benchmark cases (BM_FindOptimal/<n_gpus>/<prune>) for
//    wall-clock comparisons under the standard benchmark harness;
//  * a driver that runs one timed search per (n_gpus, engine) pair and
//    writes BENCH_search.json — candidate count, evaluations, build_layer
//    calls, cache hits, pruned counts and configs/sec — so the >= 5x
//    build_layer reduction and the speedup are machine-checkable.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "search/search.hpp"

namespace {

using namespace tfpe;

search::SearchOptions search_opts(bool prune) {
  search::SearchOptions opts;
  opts.strategy = parallel::TpStrategy::TP1D;
  opts.global_batch = 4096;
  opts.prune = prune;
  return opts;
}

void BM_FindOptimal(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const bool prune = state.range(1) != 0;
  const auto mdl = model::gpt3_1t();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, n);
  const auto opts = search_opts(prune);
  search::SearchStats stats;
  std::size_t evaluated = 0;
  for (auto _ : state) {
    const auto r = search::find_optimal(mdl, sys, opts);
    stats = r.stats;
    evaluated = r.evaluated;
    benchmark::DoNotOptimize(r);
  }
  state.counters["candidates"] = static_cast<double>(stats.candidates);
  state.counters["evaluations"] = static_cast<double>(evaluated);
  state.counters["build_layer"] = static_cast<double>(stats.build_layer_calls);
  state.counters["bound_pruned"] = static_cast<double>(stats.bound_pruned);
}
BENCHMARK(BM_FindOptimal)
    ->ArgsProduct({{512, 2048, 8192}, {0, 1}})
    ->ArgNames({"gpus", "prune"})
    ->Unit(benchmark::kMillisecond);

struct Sample {
  std::int64_t n_gpus = 0;
  bool prune = false;
  double seconds = 0;
  std::size_t evaluated = 0;
  search::SearchStats stats;
};

Sample run_once(std::int64_t n, bool prune) {
  const auto mdl = model::gpt3_1t();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, n);
  Sample s;
  s.n_gpus = n;
  s.prune = prune;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = search::find_optimal(mdl, sys, search_opts(prune));
  s.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  s.evaluated = r.evaluated;
  s.stats = r.stats;
  return s;
}

void write_json(const std::vector<Sample>& samples, const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"model\": \"GPT3-1T\",\n  \"global_batch\": 4096,\n"
     << "  \"runs\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const double rate =
        s.seconds > 0 ? static_cast<double>(s.stats.candidates) / s.seconds
                      : 0.0;
    os << "    {\"n_gpus\": " << s.n_gpus
       << ", \"engine\": \"" << (s.prune ? "pruned" : "exhaustive") << "\""
       << ", \"seconds\": " << s.seconds
       << ", \"configs_per_sec\": " << rate
       << ", \"candidates\": " << s.stats.candidates
       << ", \"evaluations\": " << s.evaluated
       << ", \"build_layer_calls\": " << s.stats.build_layer_calls
       << ", \"layer_cache_hits\": " << s.stats.layer_cache_hits
       << ", \"placement_sets\": " << s.stats.placement_sets
       << ", \"placement_cache_hits\": " << s.stats.placement_cache_hits
       << ", \"signature_compiles\": " << s.stats.signature_compiles
       << ", \"bound_pruned\": " << s.stats.bound_pruned
       << ", \"memory_pruned\": " << s.stats.memory_pruned
       << ", \"rounds\": " << s.stats.rounds << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void run_driver() {
  std::vector<Sample> samples;
  for (std::int64_t n : {512, 2048, 8192}) {
    for (bool prune : {false, true}) {
      samples.push_back(run_once(n, prune));
      const Sample& s = samples.back();
      std::cout << "n_gpus=" << s.n_gpus
                << (s.prune ? " pruned    " : " exhaustive")
                << "  time=" << s.seconds << "s"
                << "  candidates=" << s.stats.candidates
                << "  evaluations=" << s.evaluated
                << "  build_layer=" << s.stats.build_layer_calls
                << "  bound_pruned=" << s.stats.bound_pruned
                << "  memory_pruned=" << s.stats.memory_pruned << "\n";
    }
    const Sample& brute = samples[samples.size() - 2];
    const Sample& pruned = samples.back();
    std::cout << "  -> speedup " << brute.seconds / pruned.seconds
              << "x, build_layer reduction "
              << static_cast<double>(brute.stats.build_layer_calls) /
                     static_cast<double>(pruned.stats.build_layer_calls)
              << "x\n";
  }
  write_json(samples, "BENCH_search.json");
  std::cout << "wrote BENCH_search.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  // `--driver` (or no google-benchmark flags) runs the A/B driver that
  // emits BENCH_search.json; benchmark flags run the registered cases.
  const bool no_args = argc == 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--driver") {
      run_driver();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (no_args) {
    run_driver();
    return 0;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
