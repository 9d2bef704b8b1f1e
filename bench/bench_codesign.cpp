// A/B benchmark of the architecture x configuration co-design engine
// (search/codesign.hpp), three arms over the same iso-parameter family x
// hardware grid:
//   naive         — one find_optimal per (shape, point), looped here: the
//                   pre-engine flow and the verification reference;
//   engine        — memoized enumeration + warm-start chains + batched
//                   placement scan, full exact per-shape matrix
//                   (prune_shapes = false);
//   engine-prune  — the same plus shape-level floor pruning against the
//                   cross-shape incumbents (the production default).
//
// The family is the GPT3-1T iso-parameter band of Anthony et al. (arXiv
// 2401.14489): every (depth, heads, head_dim, kv_heads, moe_experts) shape
// within +/-4% of 1T params — >= 200 shapes — crossed with the
// A100/H200/B200 generations at 1024 GPUs.
//
// Two outputs:
//  * google-benchmark cases (BM_Codesign/<mode>) on a trimmed family for
//    wall-clock comparisons under the standard harness;
//  * a driver that runs each (mode, threads) combination over the full
//    family, ASSERTS the exactness contract BEFORE writing any artifact —
//    every scanned (shape, point) result and every per-point winner must
//    be bitwise identical to the naive arm's find_optimal matrix, and the
//    pruned arm must report nonzero shapes_pruned — and only then writes
//    BENCH_codesign.json with the per-arm seconds, shape-points/sec and
//    work counters plus the engine-vs-naive speedups, so the >= 5x
//    per-shape throughput gain is machine-checkable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "search/codesign.hpp"

namespace {

using namespace tfpe;

constexpr std::int64_t kGpus = 1024;
constexpr std::int64_t kBatch = 4096;
constexpr double kTolerance = 0.04;

enum class Mode { kNaive, kEngine, kEnginePrune };
constexpr Mode kModes[] = {Mode::kNaive, Mode::kEngine, Mode::kEnginePrune};

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kNaive: return "naive";
    case Mode::kEngine: return "engine";
    case Mode::kEnginePrune: return "engine-prune";
  }
  return "?";
}

/// The GPT3-1T iso-parameter band: depths 32..160, heads 32..256,
/// head_dim {128, 160}, MHA and 8-head GQA, dense and 8-expert MoE.
std::vector<model::TransformerConfig> family() {
  model::ShapeFamilyOptions fam;
  fam.tolerance = kTolerance;
  fam.kv_heads = {0, 8};
  fam.moe_experts = {0, 8};
  return model::shape_family(model::gpt3_1t(), fam);
}

std::vector<hw::SystemConfig> grid() {
  return search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
       hw::GpuGeneration::B200},
      {4, 8, 16, 32, 64}, kGpus);
}

search::CodesignOptions codesign_opts(Mode mode, unsigned threads) {
  search::CodesignOptions opts;
  opts.sweep.search.strategy = parallel::TpStrategy::TP1D;
  opts.sweep.search.global_batch = kBatch;
  opts.sweep.warm_start = true;
  opts.sweep.threads = threads;
  opts.prune_shapes = mode == Mode::kEnginePrune;
  return opts;
}

/// The naive arm: one independent find_optimal per (shape, point), given
/// the engine's thread budget, filling the full exact matrix and the
/// shape-order better_result winners.
search::CodesignResult run_naive(
    const std::vector<model::TransformerConfig>& shapes,
    const std::vector<hw::SystemConfig>& points,
    const search::CodesignOptions& opts) {
  search::SearchOptions per_point = opts.sweep.search;
  per_point.threads = opts.sweep.threads;
  search::CodesignResult out;
  out.shapes = shapes;
  out.best.resize(points.size());
  out.per_shape.assign(shapes.size(),
                       std::vector<core::EvalResult>(points.size()));
  out.pruned.assign(shapes.size(),
                    std::vector<std::uint8_t>(points.size(), 0));
  auto& st = out.stats;
  st.shapes = shapes.size();
  st.points = points.size();
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      search::SearchResult r =
          search::find_optimal(shapes[s], points[p], per_point);
      ++st.shapes_evaluated;
      ++st.enumerations;
      st.candidates += r.stats.candidates;
      st.evaluated += r.evaluated;
      st.bound_pruned += r.stats.bound_pruned;
      st.memory_pruned += r.stats.memory_pruned;
      st.signature_compiles += r.stats.signature_compiles;
      if (r.best.feasible) ++st.feasible_shape_points;
      out.per_shape[s][p] = std::move(r.best);
      if (search::better_result(out.per_shape[s][p], out.best[p].best)) {
        out.best[p].best = out.per_shape[s][p];
        out.best[p].shape = s;
      }
    }
  }
  return out;
}

search::CodesignResult run_mode(
    Mode mode, const std::vector<model::TransformerConfig>& shapes,
    const std::vector<hw::SystemConfig>& points,
    const search::CodesignOptions& opts) {
  return mode == Mode::kNaive ? run_naive(shapes, points, opts)
                              : search::run_codesign(shapes, points, opts);
}

void BM_Codesign(benchmark::State& state) {
  const Mode mode = kModes[state.range(0)];
  // Trimmed family (one head_dim, MHA only, dense + MoE so the prune arm
  // has something to cut) so the harness cases iterate in milliseconds;
  // the driver runs the full band.
  model::ShapeFamilyOptions fam;
  fam.tolerance = kTolerance;
  fam.head_dims = {128};
  fam.moe_experts = {0, 8};
  const auto shapes = model::shape_family(model::gpt3_1t(), fam);
  const auto points = grid();
  const auto opts = codesign_opts(mode, 1);
  search::CodesignStats stats;
  for (auto _ : state) {
    const auto r = run_mode(mode, shapes, points, opts);
    stats = r.stats;
    benchmark::DoNotOptimize(r);
  }
  state.counters["shapes"] = static_cast<double>(stats.shapes);
  state.counters["shape_points"] =
      static_cast<double>(stats.shapes * stats.points);
  state.counters["shapes_pruned"] = static_cast<double>(stats.shapes_pruned);
  state.counters["evaluations"] = static_cast<double>(stats.evaluated);
}
BENCHMARK(BM_Codesign)
    ->ArgsProduct({{0, 1, 2}})
    ->ArgNames({"mode"})
    ->Unit(benchmark::kMillisecond);

struct Sample {
  Mode mode = Mode::kNaive;
  unsigned threads = 0;
  double seconds = 0;
  search::CodesignResult result;
};

Sample run_once(const std::vector<model::TransformerConfig>& shapes,
                const std::vector<hw::SystemConfig>& points, Mode mode,
                unsigned threads, int repeats) {
  const auto opts = codesign_opts(mode, threads);
  Sample s;
  s.mode = mode;
  s.threads = threads;
  s.seconds = 1e30;
  // min-of-N timing; every run builds its caches from scratch, so repeats
  // stay honest about the enumeration and compile work.
  for (int rep = 0; rep < repeats; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = run_mode(mode, shapes, points, opts);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    s.seconds = std::min(s.seconds, sec);
    if (rep + 1 == repeats) s.result = std::move(r);
  }
  return s;
}

/// The exactness contract, checked against the naive reference BEFORE any
/// artifact is written: every scanned (shape, point) entry matches the
/// reference matrix bitwise, every pruned entry is flagged (never a
/// fabricated optimum), and the per-point winners agree on both the shape
/// index and the full result.
bool verify_against(const search::CodesignResult& ref, const Sample& s) {
  bool ok = true;
  for (std::size_t i = 0; i < ref.shapes.size(); ++i) {
    for (std::size_t p = 0; p < ref.best.size(); ++p) {
      if (s.result.pruned[i][p]) continue;
      if (!search::same_optimum(ref.per_shape[i][p],
                                s.result.per_shape[i][p])) {
        ok = false;
        std::cerr << "PER-SHAPE MISMATCH shape=" << ref.shapes[i].name
                  << " point=" << p << " (" << mode_name(s.mode)
                  << ", threads=" << s.threads << ")\n";
      }
    }
  }
  for (std::size_t p = 0; p < ref.best.size(); ++p) {
    if (ref.best[p].shape != s.result.best[p].shape ||
        !search::same_optimum(ref.best[p].best, s.result.best[p].best)) {
      ok = false;
      std::cerr << "WINNER MISMATCH at grid point " << p << " ("
                << mode_name(s.mode) << ", threads=" << s.threads << ")\n";
    }
  }
  return ok;
}

void write_json(const std::vector<Sample>& samples, std::size_t n_shapes,
                std::size_t n_points, const std::string& path) {
  std::ofstream os(path);
  os << "{\n  \"model\": \"GPT3-1T\",\n  \"tolerance\": " << kTolerance
     << ",\n  \"shapes\": " << n_shapes
     << ",\n  \"global_batch\": " << kBatch << ",\n  \"n_gpus\": " << kGpus
     << ",\n  \"grid\": {\"generations\": [\"a100\", \"h200\", \"b200\"], "
     << "\"nvs_domains\": [4, 8, 16, 32, 64], \"points\": " << n_points
     << "},\n  \"identical_optima\": true,\n  \"runs\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const auto& st = s.result.stats;
    const double pairs = static_cast<double>(st.shapes * st.points);
    os << "    {\"mode\": \"" << mode_name(s.mode) << "\""
       << ", \"prune_shapes\": "
       << (s.mode == Mode::kEnginePrune ? "true" : "false")
       << ", \"threads\": " << s.threads
       << ", \"seconds\": " << s.seconds
       << ", \"shape_points_per_sec\": "
       << (s.seconds > 0 ? pairs / s.seconds : 0.0)
       << ", \"shapes_pruned\": " << st.shapes_pruned
       << ", \"shapes_evaluated\": " << st.shapes_evaluated
       << ", \"feasible_shape_points\": " << st.feasible_shape_points
       << ", \"enumerations\": " << st.enumerations
       << ", \"enumeration_hits\": " << st.enumeration_hits
       << ", \"candidates\": " << st.candidates
       << ", \"evaluations\": " << st.evaluated
       << ", \"bound_pruned\": " << st.bound_pruned
       << ", \"memory_pruned\": " << st.memory_pruned
       << ", \"warm_seeded\": " << st.warm_seeded
       << ", \"warm_seed_feasible\": " << st.warm_seed_feasible
       << ", \"signature_compiles\": " << st.signature_compiles
       << ", \"signature_cache_hits\": " << st.signature_cache_hits
       << ", \"signature_reuses\": " << st.signature_reuses
       << ", \"batch_calls\": " << st.batch_calls
       << ", \"batch_placements\": " << st.batch_placements << "}"
       << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"speedups\": [\n";
  // Each engine arm against the naive per-shape baseline at equal threads.
  bool first = true;
  for (const Sample& s : samples) {
    if (s.mode == Mode::kNaive) continue;
    for (const Sample& b : samples) {
      if (b.mode != Mode::kNaive || b.threads != s.threads) continue;
      if (!first) os << ",\n";
      first = false;
      os << "    {\"mode\": \"" << mode_name(s.mode) << "\""
         << ", \"baseline\": \"naive\""
         << ", \"threads\": " << s.threads
         << ", \"baseline_seconds\": " << b.seconds
         << ", \"seconds\": " << s.seconds
         << ", \"speedup\": " << b.seconds / s.seconds << "}";
    }
  }
  os << "\n  ]\n}\n";
}

int run_driver(bool quick) {
  // Quick mode (CI perf smoke): the trimmed BM_Codesign family — one
  // head_dim, MHA only, dense + MoE so the prune arm still fires — at
  // threads=1, so the exactness contract and the engine arms run in
  // seconds while the full driver keeps the >= 200-shape band.
  std::vector<model::TransformerConfig> shapes;
  if (quick) {
    model::ShapeFamilyOptions fam;
    fam.tolerance = kTolerance;
    fam.head_dims = {128};
    fam.moe_experts = {0, 8};
    shapes = model::shape_family(model::gpt3_1t(), fam);
  } else {
    shapes = family();
  }
  const auto points = grid();
  std::printf("family: %zu shapes iso to 1T (+/-%.0f%%), %zu grid points\n",
              shapes.size(), 100.0 * kTolerance, points.size());
  if (!quick && shapes.size() < 200) {
    std::cerr << "family shrank below 200 shapes — widen the axes\n";
    return 1;
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_axis{1};
  if (!quick && cores > 1) thread_axis.push_back(cores);

  std::vector<Sample> samples;
  for (unsigned threads : thread_axis) {
    for (Mode mode : kModes) {
      // The naive arm re-runs find_optimal for every pair and dominates the
      // wall clock; one repeat is stable at this size. The engine arms take
      // min-of-3.
      const int repeats = mode == Mode::kNaive ? 1 : (quick ? 2 : 3);
      samples.push_back(run_once(shapes, points, mode, threads, repeats));
      const Sample& s = samples.back();
      const auto& st = s.result.stats;
      std::printf(
          "%-12s threads=%u  time=%.3fs  shape-points/s=%.1f  pruned=%zu"
          "  evaluations=%zu  warm-seeds=%zu\n",
          mode_name(s.mode), s.threads, s.seconds,
          static_cast<double>(st.shapes * st.points) / s.seconds,
          st.shapes_pruned, st.evaluated, st.warm_seeded);
    }
  }

  // --- The exactness contract, asserted BEFORE the JSON artifact. ---
  const search::CodesignResult& ref = samples.front().result;  // naive, t=1
  bool ok = true;
  for (const Sample& s : samples) ok = verify_against(ref, s) && ok;
  const Sample* pruned_arm = nullptr;
  for (const Sample& s : samples) {
    if (s.mode == Mode::kEnginePrune) pruned_arm = &s;
  }
  if (pruned_arm && pruned_arm->result.stats.shapes_pruned == 0) {
    std::cerr << "shape-level floor pruning never fired\n";
    ok = false;
  }
  if (!ok) {
    std::cerr << "exactness contract violated — no artifact written\n";
    return 1;
  }
  std::cout << "all scanned results and winners bitwise identical to the "
               "naive per-shape arm\n";

  write_json(samples, shapes.size(), points.size(), "BENCH_codesign.json");
  std::cout << "wrote BENCH_codesign.json\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `--driver` (or no google-benchmark flags) runs the A/B driver that
  // emits BENCH_codesign.json; `--quick` trims it for CI; benchmark flags
  // run the registered cases.
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
