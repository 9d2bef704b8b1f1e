// A/B benchmark of the cross-hardware sweep engine against its reference,
// three arms:
//   legacy     — one find_optimal per grid point, looped here (the
//                reference the engine must reproduce);
//   batch      — search::run_sweep, the chain engine;
//   batch-warm — run_sweep with warm-started incumbents along each chain;
// on the paper-style generation x NVS-domain grid for GPT3-1T.
//
// Two outputs:
//  * google-benchmark cases (BM_Sweep/<mode>/<prune>) for wall-clock
//    comparisons under the standard benchmark harness;
//  * a driver that times each (mode, prune, threads) combination over the
//    A100/H200/B200 x NVS{4,8,16,32,64} grid at 4096 GPUs — the thread axis
//    is FIXED at {1, 4, 8} so BENCH_sweep.json rows are comparable across
//    machines (oversubscribed thread counts still exercise the pool; the
//    threads=1 rows take the inline no-pool path) — and writes
//    BENCH_sweep.json — seconds, points/sec, compile-cache hit rate, batch
//    occupancy and the speedups of batch and batch-warm over legacy.
//    The driver also asserts (exit 1 otherwise) that the
//    per-point optima are bitwise identical across all three arms, prune
//    settings and thread counts, and that the work counters (candidates,
//    evaluations, prune tallies, batch calls/placements, signature-service
//    totals) are invariant across thread counts for a given (mode, prune) —
//    scheduling may reorder chains, never change the work.
//    `--quick` trims the driver for CI (threads=1 only, fewer repeats);
//    the JSON schema is unchanged so the perf-smoke comparison can match
//    rows against the checked-in artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "search/sweep.hpp"

namespace {

using namespace tfpe;

constexpr std::int64_t kGpus = 4096;
constexpr std::int64_t kBatch = 4096;

enum class Mode { kLegacy, kBatched, kBatchedWarm };
constexpr Mode kModes[] = {Mode::kLegacy, Mode::kBatched, Mode::kBatchedWarm};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kLegacy: return "legacy";
    case Mode::kBatched: return "batch";
    case Mode::kBatchedWarm: return "batch-warm";
  }
  return "?";
}

std::vector<hw::SystemConfig> grid() {
  return search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8, 16, 32, 64}, kGpus);
}

search::SweepOptions sweep_opts(Mode mode, bool prune, unsigned threads) {
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = kBatch;
  opts.search.prune = prune;
  opts.warm_start = mode == Mode::kBatchedWarm;
  opts.threads = threads;
  return opts;
}

/// The reference arm: one independent find_optimal per grid point, given
/// the sweep's thread budget, with its counters summed into SweepStats.
search::SweepResult run_legacy(const model::TransformerConfig& mdl,
                               const std::vector<hw::SystemConfig>& points,
                               const search::SweepOptions& opts) {
  search::SearchOptions per_point = opts.search;
  per_point.threads = opts.threads;
  search::SweepResult out;
  out.stats.points = points.size();
  for (const hw::SystemConfig& sys : points) {
    search::SearchResult r = search::find_optimal(mdl, sys, per_point);
    out.evaluated_per_point.push_back(r.evaluated);
    out.stats.candidates += r.stats.candidates;
    out.stats.evaluated += r.evaluated;
    out.stats.bound_pruned += r.stats.bound_pruned;
    out.stats.memory_pruned += r.stats.memory_pruned;
    out.stats.build_layer_calls += r.stats.build_layer_calls;
    out.stats.layer_cache_hits += r.stats.layer_cache_hits;
    out.stats.signature_compiles += r.stats.signature_compiles;
    // find_optimal lowers one block per layer build.
    out.stats.signature_lowers += r.stats.build_layer_calls;
    if (r.best.feasible) ++out.stats.feasible_points;
    out.best.push_back(std::move(r.best));
  }
  return out;
}

search::SweepResult run_mode(Mode mode, const model::TransformerConfig& mdl,
                             const std::vector<hw::SystemConfig>& points,
                             const search::SweepOptions& opts) {
  return mode == Mode::kLegacy ? run_legacy(mdl, points, opts)
                               : search::run_sweep(mdl, points, opts);
}

void BM_Sweep(benchmark::State& state) {
  const Mode mode = kModes[state.range(0)];
  const bool prune = state.range(1) != 0;
  const auto mdl = model::gpt3_1t();
  const auto points = grid();
  const auto opts = sweep_opts(mode, prune, 1);
  search::SweepStats stats;
  for (auto _ : state) {
    const auto r = run_mode(mode, mdl, points, opts);
    stats = r.stats;
    benchmark::DoNotOptimize(r);
  }
  state.counters["points"] = static_cast<double>(stats.points);
  state.counters["evaluations"] = static_cast<double>(stats.evaluated);
  state.counters["compiles"] = static_cast<double>(stats.signature_compiles);
  state.counters["compile_hit_rate"] = stats.compile_hit_rate();
  state.counters["batch_occupancy"] = stats.batch_occupancy();
}
BENCHMARK(BM_Sweep)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"mode", "prune"})
    ->Unit(benchmark::kMillisecond);

struct Sample {
  Mode mode = Mode::kLegacy;
  bool prune = false;
  unsigned threads = 0;
  double seconds = 0;
  search::SweepStats stats;
  std::vector<core::EvalResult> best;
};

Sample run_once(Mode mode, bool prune, unsigned threads, int repeats) {
  const auto mdl = model::gpt3_1t();
  const auto points = grid();
  const auto opts = sweep_opts(mode, prune, threads);
  Sample s;
  s.mode = mode;
  s.prune = prune;
  s.threads = threads;
  s.seconds = 1e30;
  // min-of-N timing: each run_sweep call builds its caches from scratch, so
  // repeats stay honest about the compile work.
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = run_mode(mode, mdl, points, opts);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    s.seconds = std::min(s.seconds, sec);
    s.stats = r.stats;
    if (rep + 1 == repeats) s.best = std::move(r.best);
  }
  return s;
}

void write_json(const std::vector<Sample>& samples, std::size_t n_points,
                bool identical, const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"model\": \"GPT3-1T\",\n  \"global_batch\": " << kBatch
     << ",\n  \"n_gpus\": " << kGpus << ",\n"
     << "  \"grid\": {\"generations\": [\"a100\", \"h200\", \"b200\"], "
     << "\"nvs_domains\": [4, 8, 16, 32, 64], \"points\": " << n_points
     << "},\n  \"identical_optima\": " << (identical ? "true" : "false")
     << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const double rate =
        s.seconds > 0 ? static_cast<double>(s.stats.points) / s.seconds : 0.0;
    os << "    {\"mode\": \"" << mode_name(s.mode) << "\""
       << ", \"engine\": \""
       << (s.mode == Mode::kLegacy ? "legacy" : "signature") << "\""
       << ", \"batch\": " << (s.mode == Mode::kLegacy ? "false" : "true")
       << ", \"warm_start\": "
       << (s.mode == Mode::kBatchedWarm ? "true" : "false")
       << ", \"prune\": " << (s.prune ? "true" : "false")
       << ", \"threads\": " << s.threads
       << ", \"seconds\": " << s.seconds
       << ", \"points_per_sec\": " << rate
       << ", \"candidates\": " << s.stats.candidates
       << ", \"evaluations\": " << s.stats.evaluated
       << ", \"bound_pruned\": " << s.stats.bound_pruned
       << ", \"memory_pruned\": " << s.stats.memory_pruned
       << ", \"build_layer_calls\": " << s.stats.build_layer_calls
       << ", \"layer_cache_hits\": " << s.stats.layer_cache_hits
       << ", \"signature_compiles\": " << s.stats.signature_compiles
       << ", \"signature_cache_hits\": " << s.stats.signature_cache_hits
       << ", \"signature_reuses\": " << s.stats.signature_reuses
       << ", \"compile_hit_rate\": " << s.stats.compile_hit_rate()
       << ", \"signature_lowers\": " << s.stats.signature_lowers
       << ", \"batch_calls\": " << s.stats.batch_calls
       << ", \"batch_placements\": " << s.stats.batch_placements
       << ", \"batch_occupancy\": " << s.stats.batch_occupancy()
       << ", \"warm_seeded\": " << s.stats.warm_seeded
       << ", \"warm_seed_feasible\": " << s.stats.warm_seed_feasible << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"speedups\": [\n";
  // Each engine arm against the legacy reference at equal thread count and
  // prune setting.
  bool first = true;
  for (const Sample& s : samples) {
    if (s.mode == Mode::kLegacy) continue;
    for (const Sample& b : samples) {
      if (b.mode != Mode::kLegacy || b.prune != s.prune ||
          b.threads != s.threads) {
        continue;
      }
      if (!first) os << ",\n";
      first = false;
      os << "    {\"mode\": \"" << mode_name(s.mode) << "\""
         << ", \"baseline\": \"" << mode_name(b.mode) << "\""
         << ", \"threads\": " << s.threads
         << ", \"prune\": " << (s.prune ? "true" : "false")
         << ", \"baseline_seconds\": " << b.seconds
         << ", \"seconds\": " << s.seconds
         << ", \"speedup\": " << b.seconds / s.seconds << "}";
    }
  }
  os << "\n  ]\n}\n";
}

/// The work a sweep performs is a function of (mode, prune) alone; the
/// thread count only schedules it. Any counter drift across the thread
/// axis would mean the engines race on shared state, so the driver pins
/// the full tally. The signature-service counters are compared as the
/// compiles+hits+reuses TOTAL: concurrent chains may resolve the same
/// cache miss as duplicate compiles, shifting the compile/hit split
/// without changing how many visits were served.
bool counters_thread_invariant(const std::vector<Sample>& samples) {
  bool ok = true;
  for (const Sample& a : samples) {
    for (const Sample& b : samples) {
      if (a.mode != b.mode || a.prune != b.prune || a.threads >= b.threads) {
        continue;
      }
      const auto sig_total = [](const search::SweepStats& st) {
        return st.signature_compiles + st.signature_cache_hits +
               st.signature_reuses;
      };
      const auto check = [&](const char* name, std::size_t va, std::size_t vb) {
        if (va == vb) return;
        ok = false;
        std::cerr << "COUNTER DRIFT " << name << ": " << va << " (threads="
                  << a.threads << ") vs " << vb << " (threads=" << b.threads
                  << ") for " << mode_name(a.mode)
                  << " prune=" << a.prune << "\n";
      };
      check("candidates", a.stats.candidates, b.stats.candidates);
      check("evaluated", a.stats.evaluated, b.stats.evaluated);
      check("bound_pruned", a.stats.bound_pruned, b.stats.bound_pruned);
      check("memory_pruned", a.stats.memory_pruned, b.stats.memory_pruned);
      check("batch_calls", a.stats.batch_calls, b.stats.batch_calls);
      check("batch_placements", a.stats.batch_placements,
            b.stats.batch_placements);
      check("warm_seeded", a.stats.warm_seeded, b.stats.warm_seeded);
      check("signature_served", sig_total(a.stats), sig_total(b.stats));
    }
  }
  return ok;
}

int run_driver(bool quick) {
  // Fixed thread axis: rows stay comparable across machines and against
  // the checked-in BENCH_sweep.json (a hardware-derived axis made every
  // machine emit a different row set — single-core boxes only ever wrote
  // threads=1). Quick mode keeps the single-thread rows only.
  const std::vector<unsigned> thread_axis =
      quick ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 4, 8};
  const int repeats = quick ? 2 : 5;

  std::vector<Sample> samples;
  for (bool prune : {false, true}) {
    for (unsigned threads : thread_axis) {
      for (Mode mode : kModes) {
        samples.push_back(run_once(mode, prune, threads, repeats));
        const Sample& s = samples.back();
        std::printf(
            "%-10s %s threads=%u  time=%.3fs  evaluations=%zu  compiles=%zu"
            "  batch-occupancy=%.1f  warm-seeds=%zu\n",
            mode_name(s.mode), s.prune ? "pruned    " : "exhaustive",
            s.threads, s.seconds, s.stats.evaluated,
            s.stats.signature_compiles, s.stats.batch_occupancy(),
            s.stats.warm_seeded);
      }
      // The last three samples are this (prune, threads) row's arms, in
      // kModes order.
      const Sample* row = &samples[samples.size() - 3];
      std::printf("  -> batch vs legacy %.2fx, batch-warm vs legacy %.2fx\n",
                  row[0].seconds / row[1].seconds,
                  row[0].seconds / row[2].seconds);
    }
  }

  // Every run must agree per point — engine, warm starts, prune setting
  // and thread count may change the work done, never the answer.
  // The work counters must additionally agree across thread counts (checked
  // separately so the JSON's identical_optima keeps its exact meaning).
  const bool counters_ok = counters_thread_invariant(samples);
  bool identical = true;
  const std::size_t n_points = samples.front().best.size();
  for (const Sample& s : samples) {
    for (std::size_t p = 0; p < n_points; ++p) {
      if (!search::same_optimum(samples.front().best[p], s.best[p])) {
        identical = false;
        std::cerr << "OPTIMUM MISMATCH at grid point " << p << " ("
                  << mode_name(s.mode) << ", prune=" << s.prune
                  << ", threads=" << s.threads << ")\n";
      }
    }
  }

  write_json(samples, n_points, identical, "BENCH_sweep.json");
  std::cout << "wrote BENCH_sweep.json\n";
  if (!identical) {
    std::cerr << "per-point optima differ between runs\n";
    return 1;
  }
  if (!counters_ok) {
    std::cerr << "work counters drift across thread counts\n";
    return 1;
  }
  std::cout << "all per-point optima bitwise identical across engines\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--driver` (or no google-benchmark flags) runs the A/B driver that
  // emits BENCH_sweep.json; `--quick` trims it for CI; benchmark flags run
  // the registered cases.
  const bool no_args = argc == 1;
  bool driver = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--driver") driver = true;
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  if (driver || quick) return run_driver(quick);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (no_args) return run_driver(false);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
