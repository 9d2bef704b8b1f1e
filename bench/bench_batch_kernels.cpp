// Microbenchmarks of the batched evaluation kernels in isolation — the
// units the sweep/codesign hot path is built from — so a kernel-level
// regression is visible without running a whole sweep:
//   BM_BatchedPlacements     — time_placements_batch, warm BatchScratch,
//                              transient per-call pricer;
//   BM_BatchedPlacementsPricer — the generation-major configuration: a
//                              bind_block + finish_bind bind plus an
//                              external FabricPricer whose place memo stays
//                              warm across calls (what a sweep chain runs);
//   BM_BindScalar / BM_BindBatched — the per-(signature, system) bind
//                              (core::bind_system vs the engines'
//                              bind_block + finish_bind);
//   BM_FabricPricerPrice     — pricing one collective from cached
//                              sub-results vs the full fabric walk.
//
// `--smoke` runs a fast bitwise lockstep check of every kernel arm against
// the core::evaluate_with_layer oracle, per placement, and exits nonzero on
// any mismatch; tests/CMakeLists-style registration in bench/CMakeLists.txt
// wires it into ctest so the kernels cannot drift from the oracle without
// failing the suite. The exhaustive randomized twin lives in
// tests/test_signature.cpp.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/evaluator.hpp"
#include "search/search.hpp"
#include "search/sweep.hpp"

namespace {

using namespace tfpe;

constexpr std::int64_t kBatch = 4096;

/// One representative heavy candidate: the first valid GPT3-1T config with
/// a non-trivial enumerated placement set on the given system.
struct Fixture {
  model::TransformerConfig mdl = model::gpt3_1t();
  hw::SystemConfig sys;
  parallel::ParallelConfig cfg;
  std::vector<std::array<std::int64_t, 4>> placements;

  explicit Fixture(std::int64_t nvs = 8)
      : sys(hw::make_system(hw::GpuGeneration::H200, nvs, 4096)) {
    search::SearchOptions sopts;
    sopts.strategy = parallel::TpStrategy::TP1D;
    sopts.global_batch = kBatch;
    for (const parallel::ParallelConfig& c :
         search::expand_candidates(mdl, sys, sopts)) {
      if (c.invalid_reason(mdl, sys, kBatch)) continue;
      const auto pls = search::enumerate_placements(c, sys.nvs_domain);
      if (pls.size() < 4) continue;
      cfg = c;
      placements = pls;
      return;
    }
    std::fprintf(stderr, "no candidate with a non-trivial placement set\n");
    std::abort();
  }
};

void BM_BatchedPlacements(benchmark::State& state) {
  Fixture fx;
  const core::CostSignature sig =
      core::compile_signature(fx.mdl, fx.cfg, kBatch);
  const core::BatchedSignature bat = core::lower_batched(sig);
  const core::SystemTiming base = core::bind_system(sig, fx.sys);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> out;
  for (auto _ : state) {
    core::time_placements_batch(sig, bat, base, fx.sys, fx.cfg, fx.placements,
                                {}, out, &scratch);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.placements.size()));
  state.counters["placements"] = static_cast<double>(fx.placements.size());
}
BENCHMARK(BM_BatchedPlacements)->Unit(benchmark::kMicrosecond);

void BM_BatchedPlacementsPricer(benchmark::State& state) {
  Fixture fx;
  const core::CostSignature sig =
      core::compile_signature(fx.mdl, fx.cfg, kBatch);
  const core::BatchedSignature bat = core::lower_batched(sig);
  const hw::Topology fabric = fx.sys.resolved_fabric();
  const comm::FabricPricer pricer(fabric);
  core::SystemTiming base;
  core::finish_bind(core::bind_block(bat, fx.sys), sig, fx.sys, base);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> out;
  for (auto _ : state) {
    core::time_placements_batch(sig, bat, base, fx.sys, fx.cfg, fx.placements,
                                {}, out, &scratch, &pricer);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.placements.size()));
  state.counters["placements"] = static_cast<double>(fx.placements.size());
}
BENCHMARK(BM_BatchedPlacementsPricer)->Unit(benchmark::kMicrosecond);

void BM_BindScalar(benchmark::State& state) {
  Fixture fx;
  const core::CostSignature sig =
      core::compile_signature(fx.mdl, fx.cfg, kBatch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::bind_system(sig, fx.sys));
  }
}
BENCHMARK(BM_BindScalar)->Unit(benchmark::kMicrosecond);

void BM_BindBatched(benchmark::State& state) {
  Fixture fx;
  const core::CostSignature sig =
      core::compile_signature(fx.mdl, fx.cfg, kBatch);
  const core::BatchedSignature bat = core::lower_batched(sig);
  core::SystemTiming base;
  for (auto _ : state) {
    core::finish_bind(core::bind_block(bat, fx.sys), sig, fx.sys, base);
    benchmark::DoNotOptimize(base);
  }
}
BENCHMARK(BM_BindBatched)->Unit(benchmark::kMicrosecond);

void BM_FabricPricerPrice(benchmark::State& state) {
  const hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, 4096);
  const hw::Topology fabric = sys.resolved_fabric();
  const comm::FabricPricer pricer(fabric);
  const comm::FabricPricer::Placed pl =
      pricer.place(comm::GroupPlacement{64, 8});
  const bool walk = state.range(0) != 0;
  for (auto _ : state) {
    if (walk) {
      benchmark::DoNotOptimize(comm::collective_time(
          fabric, ops::Collective::AllReduce, Bytes(1e8),
          comm::GroupPlacement{64, 8}));
    } else {
      benchmark::DoNotOptimize(
          pricer.price(ops::Collective::AllReduce, Bytes(1e8), pl));
    }
  }
}
BENCHMARK(BM_FabricPricerPrice)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"walk"})
    ->Unit(benchmark::kNanosecond);

bool same_timing(const core::EvalResult& a, const core::PlacementTiming& b) {
  return a.time.compute == b.time.compute && a.time.memory == b.time.memory &&
         a.time.tp_comm == b.time.tp_comm && a.time.pp_comm == b.time.pp_comm &&
         a.time.dp_comm == b.time.dp_comm && a.time.bubble == b.time.bubble &&
         a.time.optimizer == b.time.optimizer &&
         a.t_fwd_micro == b.t_fwd_stage.value() &&
         a.t_bwd_micro == b.t_bwd_stage.value();
}

/// ctest smoke: every kernel arm bitwise against the oracle, per placement,
/// on a few (generation, nvs) fixtures. Exit 0 only if every placement
/// matches.
int run_smoke() {
  int mismatches = 0;
  std::size_t compared = 0;
  for (std::int64_t nvs : {4, 8, 16}) {
    Fixture fx(nvs);
    const parallel::LayerCost layer = parallel::build_layer(
        fx.mdl, fx.cfg, fx.cfg.local_microbatch(kBatch));
    const core::CostSignature sig =
        core::compile_signature(fx.mdl, fx.cfg, kBatch, layer);
    const core::BatchedSignature bat = core::lower_batched(sig);
    const core::SystemTiming base = core::bind_system(sig, fx.sys);
    const hw::Topology fabric = fx.sys.resolved_fabric();
    const comm::FabricPricer pricer(fabric);
    // The engines' bind: per-block sums finished per candidate, no fabric.
    core::SystemTiming lean;
    core::finish_bind(core::bind_block(bat, fx.sys), sig, fx.sys, lean);
    core::BatchScratch scratch;
    std::vector<core::PlacementTiming> plain, priced;
    core::time_placements_batch(sig, bat, base, fx.sys, fx.cfg, fx.placements,
                                {}, plain, &scratch);
    core::time_placements_batch(sig, bat, lean, fx.sys, fx.cfg, fx.placements,
                                {}, priced, &scratch, &pricer);
    parallel::ParallelConfig cfg = fx.cfg;
    for (std::size_t p = 0; p < fx.placements.size(); ++p) {
      cfg.nvs1 = fx.placements[p][0];
      cfg.nvs2 = fx.placements[p][1];
      cfg.nvsp = fx.placements[p][2];
      cfg.nvsd = fx.placements[p][3];
      const core::EvalResult ref =
          core::evaluate_with_layer(fx.mdl, fx.sys, cfg, kBatch, layer);
      for (const auto* got : {&plain[p], &priced[p]}) {
        if (!same_timing(ref, *got)) {
          ++mismatches;
          std::fprintf(stderr, "MISMATCH nvs=%lld placement %zu (%s)\n",
                       static_cast<long long>(nvs), p,
                       got == &plain[p] ? "plain" : "pricer");
        }
        ++compared;
      }
    }
  }
  std::printf("smoke: %zu placement timings compared, %d mismatches\n",
              compared, mismatches);
  return mismatches == 0 && compared > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
