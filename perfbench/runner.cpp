// Planner benchmark runner: runs one workload of the tfpe planner on a
// single worker thread for a fixed wall-clock budget and prints one JSON
// object (last line of stdout) with request costs, work counts and the
// outcome of the correctness checks. perfbench/run.py builds and runs it.
//
//   perfbench_runner --workload plan|sweep|codesign|serve --seed N
//                    --seconds S [--trace 0|1] [--setup-only]
//
// Workloads. Every request is a fresh input: the systems are the hardware
// presets with their compute and HBM rates scaled per GPU generation, and
// their network rates per system, by factors in [0.98, 1.02] drawn from
// --seed. No two requests ask the same question (a result cache cannot
// answer one from another), while the candidate space — and so the work per
// request — stays the paper's, and the points of one GPU generation share
// their GPU exactly as the presets do (so the sweep's per-generation chains
// reuse their bound timings as they do on the preset grid).
//   plan     — `tfpe --strategy all`: find_optimal for 1D, 2D and SUMMA
//              tensor parallelism, best of the three, GPT3-1T at 4096 GPUs.
//   sweep    — `tfpe-sweep`: run_sweep over the Fig. 2 generation x
//              NVS-domain grid (A100/H200/B200 x NVS 4..64), GPT3-1T, one
//              slice each for 1D and 2D TP at 4096 GPUs.
//   codesign — `tfpe codesign`: run_codesign over the GPT3-1T iso-parameter
//              band (+-4%, head_dim 128, dense and 8-expert MoE) x the same
//              generation x NVS grid at 1024 GPUs, warm starts and shape
//              pruning on.
//   serve    — `tfpe serve-plan`: run_serve_plan over (tp, pp, batch) for
//              Llama3-405B on an H200 x 8 box, prompt/output lengths drawn
//              from the seed.
// Single worker: every engine runs with threads = 1, so a run measures the
// planner's work rather than the scheduling of a shared machine.
//
// Correctness, on every request: each reported optimum re-evaluated by the
// independent oracle (core::evaluate / self-compiling estimate_serving) must
// match bitwise, and every reported point must be feasible and, for serve,
// KV-resident with an ordered, non-empty Pareto front. Codesign also checks
// its winners against its own per-shape matrix and one seeded (shape, point)
// entry per request against find_optimal.
//
// Cost. A request's time is reported as its cost in Madd: millions of the
// throughput probe's adds (probe_ms) that fit in the same wall time on the
// same core, read by a probe just before and just after it. Other tenants
// of a shared host slow whole stretches of a run by up to ~1.6x, and the
// probe slows with them, so the cost tracks the planner's work where wall
// time tracks the host's load.
//
// --trace 1 (the per-layer run) splits each request into the engine's own
// three stages — enumerate (candidate enumeration), compile (signature
// compile, SoA lower, system bind) and time (bounds screen, placement
// enumeration and timing) — the split run_sweep and run_codesign already
// report in their StageProfile. For sweep and codesign the figures are that
// profile of the timed request itself. find_optimal and run_serve_plan keep
// no profile, so for plan and serve the request is replayed, untimed, through
// the engine's own entry points in the engine's order with a span around
// every call; the replay must reproduce the engine's answer and its work
// counters exactly. Coverage is the stages' total over the engine's request
// time; work counts are the engine's own stats.
//
// --setup-only builds the inputs, answers one request cold and exits: the
// set-up a one-shot planner command pays before its answer.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/inference_estimate.hpp"
#include "core/lower_bounds.hpp"
#include "model/shape_family.hpp"
#include "search/codesign.hpp"
#include "search/search.hpp"
#include "search/search_cache.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep.hpp"

namespace {

using namespace tfpe;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Throughput probe: kProbeAdds register-register adds in four independent
/// chains, about as many as the core's integer ALUs retire at once. When
/// other tenants load the core, a planner request slows by ~1.6x and this
/// probe by ~1.7x, where a single dependent chain, bound by add latency
/// rather than issue rate, slows by ~1.05x (measured on a 4-vCPU KVM guest
/// of a Xeon host). Register operands, as some cores fold adds of small
/// immediates at rename.
constexpr std::int64_t kProbeAdds = 4'000'000;

double probe_ms() {
  const auto t0 = Clock::now();
  std::uint64_t a = 0, b = 0, c = 0, d = 0;
  const std::uint64_t step = 1;
  for (std::int64_t i = 0; i < kProbeAdds; i += 8) {
#if defined(__x86_64__)
    asm volatile(
        "add %4, %0\n\tadd %4, %1\n\tadd %4, %2\n\tadd %4, %3\n\t"
        "add %4, %0\n\tadd %4, %1\n\tadd %4, %2\n\tadd %4, %3"
        : "+r"(a), "+r"(b), "+r"(c), "+r"(d)
        : "r"(step));
#elif defined(__aarch64__)
    asm volatile(
        "add %0, %0, %4\n\tadd %1, %1, %4\n\tadd %2, %2, %4\n\t"
        "add %3, %3, %4\n\tadd %0, %0, %4\n\tadd %1, %1, %4\n\t"
        "add %2, %2, %4\n\tadd %3, %3, %4"
        : "+r"(a), "+r"(b), "+r"(c), "+r"(d)
        : "r"(step));
#else
#error "perfbench: the throughput probe needs x86-64 or AArch64"
#endif
  }
  return ms_since(t0);
}

/// splitmix64: a portable, seedable stream (the <random> distributions are
/// not specified bit-for-bit across standard libraries).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  std::int64_t pick(const std::vector<std::int64_t>& v) {
    return v[next() % v.size()];
  }
};

/// One preset system per NVS domain size, the GPU rates jittered once for
/// the generation and the network rates per system.
std::vector<hw::SystemConfig> jittered(hw::GpuGeneration gen,
                                       const std::vector<std::int64_t>& nvs,
                                       std::int64_t n_gpus, Rng& rng) {
  hw::GpuSpec gpu = hw::make_system(gen, nvs.front(), n_gpus).gpu;
  gpu.tensor_flops *= rng.uniform(0.98, 1.02);
  gpu.vector_flops *= rng.uniform(0.98, 1.02);
  gpu.hbm_bandwidth *= rng.uniform(0.98, 1.02);
  std::vector<hw::SystemConfig> out;
  for (const std::int64_t d : nvs) {
    hw::SystemConfig sys = hw::make_system(gen, d, n_gpus);
    sys.gpu = gpu;
    sys.net.nvs_bandwidth *= rng.uniform(0.98, 1.02);
    sys.net.ib_bandwidth *= rng.uniform(0.98, 1.02);
    out.push_back(std::move(sys));
  }
  return out;
}

/// The Fig. 2 grid: A100/H200/B200 x NVS 4..64, generation-major (the
/// order hardware_grid builds).
std::vector<hw::SystemConfig> fig2_grid(std::int64_t n_gpus, Rng& rng) {
  std::vector<hw::SystemConfig> grid;
  for (const auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                         hw::GpuGeneration::B200}) {
    for (auto& sys : jittered(gen, {4, 8, 16, 32, 64}, n_gpus, rng)) {
      grid.push_back(std::move(sys));
    }
  }
  return grid;
}

constexpr std::int64_t kBatch = 4096;
const std::array<parallel::TpStrategy, 3> kStrategies{
    parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
    parallel::TpStrategy::Summa2D};
const std::array<parallel::TpStrategy, 2> kSweepStrategies{
    parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D};

search::SearchOptions search_options(parallel::TpStrategy strategy) {
  search::SearchOptions opts;
  opts.strategy = strategy;
  opts.global_batch = kBatch;
  opts.threads = 1;
  return opts;
}

// --- per-layer trace --------------------------------------------------------

enum Stage : std::size_t { kEnumerate, kCompile, kTime, kStageCount };
const std::array<const char*, kStageCount> kStageNames{
    "enumerate_cost", "compile_cost", "time_cost"};

/// One request's stage times and the engine's own work counters.
struct Trace {
  std::array<double, kStageCount> ms{};
  std::size_t evaluated = 0;
  std::size_t bound_pruned = 0;
  std::size_t signature_compiles = 0;

  void add_profile(const search::SweepStats::StageProfile& p) {
    ms[kEnumerate] += 1e3 * p.enumerate_s;
    ms[kCompile] += 1e3 * p.compile_s;
    ms[kTime] += 1e3 * p.time_s;
  }
};

/// Run `f`, adding its wall time to `stage`.
template <class F>
auto span(Trace& tr, Stage stage, F&& f) {
  const auto t0 = Clock::now();
  auto out = f();
  tr.ms[stage] += ms_since(t0);
  return out;
}

/// find_optimal's pruned engine (search.cpp, sweep()) with one worker and
/// deterministic round barriers, call for call: expand_candidates; the
/// validity + search_bounds screen and the cheapest-bound-first order;
/// rounds of round_size candidates, each compiled through the
/// SignatureCache/LayerCostCache, bound with bind_system and timed by
/// scan_placements_signature over its PlacementCache set, the incumbent
/// re-read and the sorted suffix cut only at the barriers; then the
/// better_result reduction. Returns the optimum; `same_work` tells whether
/// every work counter equals the engine's.
core::EvalResult replay_find_optimal(const model::TransformerConfig& mdl,
                                     const hw::SystemConfig& sys,
                                     const search::SearchOptions& opts,
                                     const search::SearchResult& engine,
                                     Trace& tr, bool& same_work) {
  const std::int64_t b = opts.global_batch;
  const auto configs = span(tr, kEnumerate, [&] {
    return search::expand_candidates(mdl, sys, opts);
  });
  const std::size_t n = configs.size();
  std::vector<core::EvalResult> best(n);
  std::vector<std::size_t> evals(n, 0);
  std::vector<double> lb(n, 0.0);
  std::size_t memory_pruned = 0;
  const auto order = span(tr, kTime, [&] {
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < n; ++i) {
      if (configs[i].invalid_reason(mdl, sys, b)) continue;
      const core::SearchBounds bounds =
          core::search_bounds(mdl, sys, configs[i], b, opts.eval);
      if (Bytes(bounds.memory_floor) > sys.gpu.hbm_capacity) {
        ++memory_pruned;
        continue;
      }
      lb[i] = bounds.time_floor;
      live.push_back(i);
    }
    std::sort(live.begin(), live.end(), [&](std::size_t a, std::size_t c) {
      return lb[a] != lb[c] ? lb[a] < lb[c] : a < c;
    });
    return live;
  });

  search::LayerCostCache layers;
  search::PlacementCache placements;
  search::SignatureCache signatures;
  double incumbent = std::numeric_limits<double>::infinity();
  std::size_t bound_pruned = 0, rounds = 0, pos = 0;
  std::size_t active_end = order.size();
  while (pos < active_end) {
    const auto cut = std::upper_bound(
        order.begin() + static_cast<std::ptrdiff_t>(pos),
        order.begin() + static_cast<std::ptrdiff_t>(active_end), incumbent,
        [&](double t, std::size_t idx) { return t < lb[idx]; });
    const auto new_end = static_cast<std::size_t>(cut - order.begin());
    bound_pruned += active_end - new_end;
    active_end = new_end;
    if (pos >= active_end) break;
    const std::size_t round_end =
        std::min(pos + std::max<std::size_t>(1, opts.round_size), active_end);
    for (; pos < round_end; ++pos) {
      const std::size_t i = order[pos];
      const parallel::ParallelConfig& cfg = configs[i];
      const auto sig = span(tr, kCompile, [&] {
        return signatures.get(mdl, cfg, b, opts.eval, layers);
      });
      const auto base = span(tr, kCompile, [&] {
        return core::bind_system(*sig, sys, opts.eval);
      });
      best[i] = span(tr, kTime, [&] {
        const auto set = placements.get(cfg, sys.nvs_domain);
        return search::scan_placements_signature(
            mdl, sys, cfg, b, *sig, base, *set, opts.eval, evals[i],
            /*stop_after_infeasible=*/true);
      });
      if (best[i].feasible) {
        incumbent = std::min(incumbent, best[i].iteration());
      }
    }
    ++rounds;
  }

  core::EvalResult out;
  std::size_t evaluated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    evaluated += evals[i];
    if (search::better_result(best[i], out)) out = best[i];
  }
  const search::SearchStats& s = engine.stats;
  same_work = evaluated == engine.evaluated &&
              bound_pruned == s.bound_pruned &&
              memory_pruned == s.memory_pruned && rounds == s.rounds &&
              signatures.compiles() == s.signature_compiles &&
              layers.builds() == s.build_layer_calls &&
              placements.builds() == s.placement_sets;
  return out;
}

// --- correctness ------------------------------------------------------------

bool same_result(const core::EvalResult& a, const core::EvalResult& b) {
  return a.feasible == b.feasible &&
         (!a.feasible || (a.cfg.describe() == b.cfg.describe() &&
                          a.iteration() == b.iteration() &&
                          a.mem.total().value() == b.mem.total().value()));
}

/// The reported optimum is feasible and the independent oracle, evaluating
/// its configuration from scratch, prices it identically.
bool oracle_agrees(const model::TransformerConfig& mdl,
                   const hw::SystemConfig& sys, const core::EvalResult& r) {
  return r.feasible && std::isfinite(r.iteration()) &&
         same_result(r, core::evaluate(mdl, sys, r.cfg, kBatch));
}

bool same_estimate(const core::InferenceEstimate& a,
                   const core::InferenceEstimate& b) {
  return a.feasible == b.feasible && a.admitted_batch == b.admitted_batch &&
         a.ttft == b.ttft && a.tpot == b.tpot &&
         a.tokens_per_sec_per_gpu == b.tokens_per_sec_per_gpu &&
         a.mem.total().value() == b.mem.total().value();
}

// --- workloads --------------------------------------------------------------

/// One benchmark workload: draws request inputs from the seed stream,
/// answers them with the engine, checks the answers and splits them into
/// stages.
struct BenchWorkload {
  virtual ~BenchWorkload() = default;
  BenchWorkload() = default;
  BenchWorkload(const BenchWorkload&) = delete;
  BenchWorkload& operator=(const BenchWorkload&) = delete;
  /// Draw the next request's inputs.
  virtual void next(Rng& rng) = 0;
  /// Answer the drawn request with the engine (the timed call).
  virtual void answer() = 0;
  /// Check the last answer against the oracle.
  virtual bool check() = 0;
  /// Stage times and work counters of the last answer; false when a
  /// replay disagrees with the engine.
  virtual bool trace(Trace& tr) = 0;
};

struct PlanWorkload final : BenchWorkload {
  model::TransformerConfig mdl = model::gpt3_1t();
  hw::SystemConfig sys;
  std::array<search::SearchResult, 3> found;
  core::EvalResult best;

  void next(Rng& rng) override {
    sys = jittered(hw::GpuGeneration::B200, {8}, 4096, rng).front();
  }
  void answer() override {
    best = core::EvalResult{};
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      found[s] = search::find_optimal(mdl, sys, search_options(kStrategies[s]));
      if (search::better_result(found[s].best, best)) best = found[s].best;
    }
  }
  bool check() override {
    bool ok = best.feasible;
    for (const auto& f : found) ok = ok && oracle_agrees(mdl, sys, f.best);
    return ok;
  }
  bool trace(Trace& tr) override {
    bool ok = true;
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      const auto& f = found[s];
      bool same_work = false;
      const core::EvalResult r = replay_find_optimal(
          mdl, sys, search_options(kStrategies[s]), f, tr, same_work);
      ok = ok && same_work && same_result(r, f.best);
      tr.evaluated += f.evaluated;
      tr.bound_pruned += f.stats.bound_pruned;
      tr.signature_compiles += f.stats.signature_compiles;
    }
    return ok;
  }
};

struct SweepWorkload final : BenchWorkload {
  model::TransformerConfig mdl = model::gpt3_1t();
  std::vector<hw::SystemConfig> grid;
  std::array<search::SweepResult, 2> results;

  void next(Rng& rng) override { grid = fig2_grid(4096, rng); }
  void answer() override {
    for (std::size_t s = 0; s < kSweepStrategies.size(); ++s) {
      search::SweepOptions opts;
      opts.search.strategy = kSweepStrategies[s];
      opts.search.global_batch = kBatch;
      opts.threads = 1;
      results[s] = search::run_sweep(mdl, grid, opts);
    }
  }
  bool check() override {
    bool ok = true;
    for (const auto& r : results) {
      ok = ok && r.best.size() == grid.size();
      for (std::size_t p = 0; ok && p < grid.size(); ++p) {
        ok = oracle_agrees(mdl, grid[p], r.best[p]);
      }
    }
    return ok;
  }
  bool trace(Trace& tr) override {
    for (const auto& r : results) {
      tr.add_profile(r.stats.profile);
      tr.evaluated += r.stats.evaluated;
      tr.bound_pruned += r.stats.bound_pruned;
      tr.signature_compiles += r.stats.signature_compiles;
    }
    return true;
  }
};

struct CodesignWorkload final : BenchWorkload {
  std::vector<model::TransformerConfig> shapes = [] {
    model::ShapeFamilyOptions fam;
    fam.tolerance = 0.04;
    fam.head_dims = {128};
    fam.moe_experts = {0, 8};
    return model::shape_family(model::gpt3_1t(), fam);
  }();
  std::vector<hw::SystemConfig> grid;
  search::CodesignOptions opts = [] {
    search::CodesignOptions o;
    o.sweep.search.global_batch = kBatch;
    o.sweep.warm_start = true;
    o.sweep.threads = 1;
    return o;
  }();
  search::CodesignResult result;
  std::uint64_t sample = 0;  ///< picks the entry re-checked by find_optimal

  void next(Rng& rng) override {
    grid = fig2_grid(1024, rng);
    sample = rng.next();
  }
  void answer() override {
    result = search::run_codesign(shapes, grid, opts);
  }
  bool check() override {
    const auto& r = result;
    bool ok = r.best.size() == grid.size() && r.per_shape.size() == shapes.size();
    std::vector<std::pair<std::size_t, std::size_t>> scanned;
    for (std::size_t p = 0; ok && p < grid.size(); ++p) {
      // The winner is the shape-order better_result reduction of the
      // scanned per-shape entries, and the oracle prices it identically.
      core::EvalResult best;
      std::size_t shape = search::CodesignResult::kNoShape;
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        if (r.pruned[s][p]) continue;
        scanned.emplace_back(s, p);
        if (search::better_result(r.per_shape[s][p], best)) {
          best = r.per_shape[s][p];
          shape = s;
        }
      }
      ok = shape != search::CodesignResult::kNoShape &&
           shape == r.best[p].shape && same_result(best, r.best[p].best) &&
           oracle_agrees(shapes[shape], grid[p], best);
    }
    if (!ok || scanned.empty()) return false;
    const auto [s, p] = scanned[sample % scanned.size()];
    search::SearchOptions one = opts.sweep.search;
    one.threads = 1;
    return same_result(r.per_shape[s][p],
                       search::find_optimal(shapes[s], grid[p], one).best);
  }
  bool trace(Trace& tr) override {
    const search::CodesignStats& s = result.stats;
    tr.add_profile(s.profile);
    tr.evaluated += s.evaluated;
    tr.bound_pruned += s.bound_pruned;
    tr.signature_compiles += s.signature_compiles;
    return true;
  }
};

struct ServeWorkload final : BenchWorkload {
  model::TransformerConfig mdl = model::llama3_405b();
  hw::SystemConfig sys;
  search::ServePlanOptions opts;
  search::ServePlanResult result;

  void next(Rng& rng) override {
    sys = jittered(hw::GpuGeneration::H200, {8}, 8, rng).front();
    core::ServingSpec& spec = opts.spec;
    spec = core::ServingSpec{};
    spec.prompt_len = rng.pick({1024, 2048, 3072, 4096});
    spec.output_len = rng.pick({128, 256, 384, 512});
    spec.tp = {1, 2, 4, 8};
    spec.pp = {1, 2};
    spec.batch = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  }
  void answer() override { result = search::run_serve_plan(mdl, sys, opts); }

  bool check() override {
    const core::ServingSpec& spec = opts.spec;
    const double hbm = sys.gpu.hbm_capacity.value();
    bool ok = !result.front.empty();
    for (std::size_t k = 0; ok && k < result.front.size(); ++k) {
      const auto& e = result.points[result.front[k]];
      const bool resident = e.feasible && e.admitted_batch >= 1 &&
                            e.admitted_batch <= e.cfg.batch &&
                            e.mem.total().value() <= hbm &&
                            e.mem.kv_cache.value() <=
                                spec.kv_cap_fraction * hbm &&
                            std::isfinite(e.tokens_per_sec_per_gpu);
      const bool ordered =
          k == 0 || (result.points[result.front[k - 1]].request_latency <=
                         e.request_latency &&
                     result.points[result.front[k - 1]]
                             .tokens_per_sec_per_gpu <
                         e.tokens_per_sec_per_gpu);
      ok = resident && ordered &&
           same_estimate(e, core::estimate_serving(mdl, sys, spec.workload(),
                                                   e.cfg, opts.eval));
    }
    return ok;
  }

  /// run_serve_plan (serve_plan.cpp) call for call: per (tp, pp) shape the
  /// validity screen and the packed ParallelConfig; per batch point the
  /// prefill signature through the SignatureCache/LayerCostCache (compiled
  /// once per shape) and estimate_serving, which binds the prefill phase
  /// and lowers and times the decode step itself; then the Pareto front.
  bool trace(Trace& tr) override {
    const core::ServingSpec& spec = opts.spec;
    const core::Workload w = spec.workload();
    model::TransformerConfig prompt = mdl;
    if (spec.prompt_len > 0) prompt.seq_len = spec.prompt_len;
    search::LayerCostCache layers;
    search::SignatureCache signatures;
    std::vector<core::InferenceEstimate> pts;
    for (const std::int64_t tp : spec.tp) {
      for (const std::int64_t pp : spec.pp) {
        core::ServingConfig shape;
        shape.tp = tp;
        shape.pp = pp;
        shape.kv_cap_fraction = spec.kv_cap_fraction;
        const auto why = span(tr, kTime, [&] {
          return core::serve_invalid_reason(mdl, sys, w, shape);
        });
        const auto cfg = span(tr, kEnumerate, [&] {
          return core::serving_parallel_config(sys, shape);
        });
        for (const std::int64_t batch : spec.batch) {
          if (spec.max_batch > 0 && batch > spec.max_batch) continue;
          core::ServingConfig sc = shape;
          sc.batch = batch;
          if (why) {
            core::InferenceEstimate est;
            est.cfg = sc;
            est.reason = *why;
            pts.push_back(std::move(est));
            continue;
          }
          const auto sig = span(tr, kCompile, [&] {
            return signatures.get(prompt, cfg, 1, opts.eval, layers);
          });
          pts.push_back(span(tr, kTime, [&] {
            return core::estimate_serving(mdl, sys, w, sc, *sig, opts.eval);
          }));
        }
      }
    }
    const search::ServePlanStats& s = result.stats;
    bool ok = search::pareto_front_serving(pts) == result.front &&
              pts.size() == result.points.size() &&
              signatures.compiles() == s.signature_compiles &&
              signatures.hits() == s.signature_reuses;
    for (std::size_t i = 0; ok && i < pts.size(); ++i) {
      ok = same_estimate(pts[i], result.points[i]);
    }
    tr.evaluated += s.evaluated;
    tr.signature_compiles += s.signature_compiles;
    return ok;
  }
};

// --- main -------------------------------------------------------------------

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_runner --workload "
               "plan|sweep|codesign|serve --seed N --seconds S [--trace 0|1] "
               "[--setup-only]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      setup_only = true;
    } else if (has_value && a == "--workload") {
      workload = argv[++i];
    } else if (has_value && a == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (has_value && a == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (has_value && a == "--trace") {
      trace = std::string(argv[++i]) == "1";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  std::unique_ptr<BenchWorkload> w;
  if (workload == "plan") {
    w = std::make_unique<PlanWorkload>();
  } else if (workload == "sweep") {
    w = std::make_unique<SweepWorkload>();
  } else if (workload == "codesign") {
    w = std::make_unique<CodesignWorkload>();
  } else if (workload == "serve") {
    w = std::make_unique<ServeWorkload>();
  } else {
    return usage("--workload must be plan, sweep, codesign or serve");
  }
  if (!setup_only && !(seconds > 0)) return usage("--seconds must be > 0");

  // The first request runs untimed: it is the cold start --setup-only
  // measures (which stops at the answer; the timed run checks it), and it
  // faults in the code and allocator arenas the timed requests then reuse.
  Rng rng{seed * 0x2545f4914f6cdd1dULL + 1};
  w->next(rng);
  w->answer();
  if (setup_only) return 0;
  const bool first_ok = w->check();

  // Requests are timed in groups of at least kGroupMs between two probes
  // (one request per group unless requests are shorter); each group gives
  // its cost per request, and the run reports the median group.
  constexpr double kGroupMs = 20.0;
  std::vector<double> request_cost, coverage, probe_rate;
  std::array<std::vector<double>, kStageCount> stage;
  std::size_t attempted = 1, failed = first_ok ? 0 : 1, timed = 0;
  double evaluated = 0, pruned = 0, compiles = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const double probe_before = probe_ms();
    const auto group_start = Clock::now();
    double answer_ms = 0;
    std::size_t n = 0;
    Trace tr;
    do {
      w->next(rng);
      const auto t0 = Clock::now();
      w->answer();
      answer_ms += ms_since(t0);
      bool ok = w->check();
      if (trace) ok = w->trace(tr) && ok;
      ++n;
      ++attempted;
      if (!ok) ++failed;
    } while (ms_since(group_start) < kGroupMs && Clock::now() < deadline);
    const double probe = 0.5 * (probe_before + probe_ms());
    // Million probe adds per ms of wall time, at the rate the probes read.
    const double madd_per_ms = 1e-6 * static_cast<double>(kProbeAdds) / probe;
    const double per_request = 1.0 / static_cast<double>(n);
    request_cost.push_back(answer_ms * per_request * madd_per_ms);
    probe_rate.push_back(madd_per_ms);
    if (trace) {
      double total = 0;
      for (std::size_t s = 0; s < kStageCount; ++s) {
        stage[s].push_back(tr.ms[s] * per_request * madd_per_ms);
        total += tr.ms[s];
      }
      coverage.push_back(100.0 * total / answer_ms);
      evaluated += static_cast<double>(tr.evaluated);
      pruned += static_cast<double>(tr.bound_pruned);
      compiles += static_cast<double>(tr.signature_compiles);
    }
    timed += n;
  } while (Clock::now() < deadline);

  std::fprintf(stderr,
               "perfbench: %zu requests in %zu groups, probe rate median "
               "%.2f Gadd/s (range %.2f..%.2f)\n",
               timed, probe_rate.size(), median_of(probe_rate),
               *std::min_element(probe_rate.begin(), probe_rate.end()),
               *std::max_element(probe_rate.begin(), probe_rate.end()));
  const double n = static_cast<double>(timed);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  if (!trace) {
    std::printf("\"request_cost\": %.17g", median_of(request_cost));
  } else {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      std::printf("\"%s\": %.17g, ", kStageNames[s], median_of(stage[s]));
    }
    std::printf("\"span_coverage_pct\": %.17g, \"evaluated\": %.17g, "
                "\"bound_pruned\": %.17g, \"signature_compiles\": %.17g",
                median_of(coverage), evaluated / n, pruned / n, compiles / n);
  }
  std::printf("}}\n");
  return 0;
}
