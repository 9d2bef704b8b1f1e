// Two-phase evaluation: golden bitwise equivalence of the batched kernel
// (compile_signature + bind + time_placements_batch) against
// the single-phase oracle evaluate_with_layer, per placement;
// CostSignature invariants (analysis::lint_signature), cross-sweep cache
// behaviour, and sweep-vs-find_optimal identity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/evaluator.hpp"
#include "search/search.hpp"
#include "search/search_cache.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep.hpp"
#include "sim/validation.hpp"

namespace tfpe {
namespace {

hw::SystemConfig system_of(hw::GpuGeneration gen, std::int64_t nvs,
                           std::int64_t n) {
  return hw::make_system(gen, nvs, n);
}

void expect_pt_bitwise(const core::PlacementTiming& ref,
                       const core::PlacementTiming& got,
                       const std::string& label) {
  EXPECT_EQ(ref.time.compute, got.time.compute) << label;
  EXPECT_EQ(ref.time.memory, got.time.memory) << label;
  EXPECT_EQ(ref.time.tp_comm, got.time.tp_comm) << label;
  EXPECT_EQ(ref.time.pp_comm, got.time.pp_comm) << label;
  EXPECT_EQ(ref.time.dp_comm, got.time.dp_comm) << label;
  EXPECT_EQ(ref.time.bubble, got.time.bubble) << label;
  EXPECT_EQ(ref.time.optimizer, got.time.optimizer) << label;
  EXPECT_EQ(ref.t_fwd_stage.value(), got.t_fwd_stage.value()) << label;
  EXPECT_EQ(ref.t_bwd_stage.value(), got.t_bwd_stage.value()) << label;
}

/// The kernel's timing of one placement against the oracle's result at
/// that placement, bitwise: every time field and both stage times, plus
/// the signature's memory breakdown and the HBM verdict a scan derives
/// from it.
void expect_oracle_bitwise(const core::EvalResult& ref,
                           const core::PlacementTiming& got,
                           const core::SignatureTail& sig,
                           const hw::SystemConfig& sys,
                           const std::string& label) {
  expect_pt_bitwise({ref.time, Seconds(ref.t_fwd_micro),
                     Seconds(ref.t_bwd_micro)},
                    got, label);
  EXPECT_EQ(ref.mem.weights.value(), sig.mem.weights.value()) << label;
  EXPECT_EQ(ref.mem.gradients.value(), sig.mem.gradients.value()) << label;
  EXPECT_EQ(ref.mem.optimizer.value(), sig.mem.optimizer.value()) << label;
  EXPECT_EQ(ref.mem.activations.value(), sig.mem.activations.value())
      << label;
  EXPECT_EQ(ref.feasible, !(sig.mem.total() > sys.gpu.hbm_capacity)) << label;
}

struct Case {
  model::TransformerConfig mdl;
  parallel::TpStrategy strategy;
  std::int64_t global_batch;
  std::string name;
};

std::vector<Case> preset_matrix() {
  return {
      {model::gpt3_1t(), parallel::TpStrategy::TP1D, 4096, "gpt3-1t/1d"},
      {model::gpt3_1t(), parallel::TpStrategy::Summa2D, 4096,
       "gpt3-1t/summa"},
      {model::gpt3_175b(), parallel::TpStrategy::TP1D, 1024, "gpt3-175b/1d"},
      {model::vit_64k(), parallel::TpStrategy::TP2D, 4096, "vit-64k/2d"},
  };
}

std::vector<core::EvalOptions> eval_variants() {
  core::EvalOptions overlap;
  overlap.tp_overlap = 0.6;
  core::EvalOptions offload;
  offload.activation_offload = 0.5;
  core::EvalOptions recompute;
  recompute.activation_recompute = true;
  core::EvalOptions all;
  all.tp_overlap = 0.3;
  all.activation_offload = 0.25;
  all.activation_recompute = true;
  return {core::EvalOptions{}, overlap, offload, recompute, all};
}

/// Every candidate (stride-sampled) at every placement: the kernel's timing
/// of the whole placement set against the oracle per placement, bitwise.
/// Covers the microbatch axis (enumeration expands every valid m), the
/// interleave/ZeRO/ring extension axes and both vocab and vocab-free models.
TEST(Signature, GoldenEquivalenceMatrix) {
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 512);
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> batched;
  std::size_t compared = 0;
  for (const Case& c : preset_matrix()) {
    search::SearchOptions sopts;
    sopts.strategy = c.strategy;
    sopts.global_batch = c.global_batch;
    sopts.allow_zero3 = true;
    sopts.allow_ring_attention = true;
    sopts.interleave_candidates = {1, 2};
    const auto configs = search::expand_candidates(c.mdl, sys, sopts);
    ASSERT_FALSE(configs.empty()) << c.name;
    for (const core::EvalOptions& eval : eval_variants()) {
      for (std::size_t i = 0; i < configs.size(); i += 7) {
        parallel::ParallelConfig cfg = configs[i];
        if (cfg.invalid_reason(c.mdl, sys, c.global_batch)) continue;
        const parallel::LayerCost layer = parallel::build_layer(
            c.mdl, cfg, cfg.local_microbatch(c.global_batch));
        const core::CostSignature sig =
            core::compile_signature(c.mdl, cfg, c.global_batch, layer, eval);
        const core::BatchedSignature& bat = sig;
        const auto placements =
            search::enumerate_placements(cfg, sys.nvs_domain);
        core::time_placements_batch(sig, bat,
                                    core::bind_system_batched(sig, bat, sys,
                                                              eval),
                                    sys, cfg, placements, eval, batched,
                                    &scratch);
        ASSERT_EQ(batched.size(), placements.size());
        for (std::size_t p = 0; p < placements.size(); ++p) {
          cfg.nvs1 = placements[p][0];
          cfg.nvs2 = placements[p][1];
          cfg.nvsp = placements[p][2];
          cfg.nvsd = placements[p][3];
          const core::EvalResult ref = core::evaluate_with_layer(
              c.mdl, sys, cfg, c.global_batch, layer, eval);
          expect_oracle_bitwise(ref, batched[p], sig, sys,
                                c.name + " " + cfg.describe());
          ++compared;
        }
      }
    }
  }
  // Guard against the matrix silently collapsing to nothing.
  EXPECT_GT(compared, 500u);
}

/// The simulator bridge: pipeline parameters derived from a signature must
/// carry the evaluator's stage times bitwise and drive simulate_pipeline to
/// a sane schedule (completion bounded below by the serial critical path of
/// one stage and above by the fully-serialized schedule).
TEST(Signature, PipelineParamsFeedSimulator) {
  const auto mdl = model::gpt3_175b();
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 128);
  parallel::ParallelConfig cfg;
  cfg.strategy = parallel::TpStrategy::TP1D;
  cfg.n1 = 8;
  cfg.np = 8;
  cfg.nd = 2;
  cfg.microbatches = 16;
  cfg.pack_placement(sys.nvs_domain);
  const core::EvalResult ref = core::evaluate(mdl, sys, cfg, 256);
  ASSERT_TRUE(ref.feasible) << ref.reason;

  const auto sig = core::compile_signature(mdl, cfg, 256);
  const sim::PipelineParams params =
      sim::pipeline_params_from_signature(sys, cfg, sig);
  EXPECT_EQ(params.stages, cfg.np);
  EXPECT_EQ(params.microbatches, cfg.microbatches);
  EXPECT_EQ(params.t_fwd.value(), ref.t_fwd_micro);
  EXPECT_EQ(params.t_bwd.value(), ref.t_bwd_micro);
  EXPECT_GT(params.t_p2p.value(), 0.0);

  const sim::PipelineTrace trace = sim::simulate_pipeline(params);
  const double micro = params.t_fwd.value() + params.t_bwd.value();
  EXPECT_GE(trace.completion_time,
            micro * static_cast<double>(params.microbatches));
  EXPECT_LE(trace.completion_time,
            (micro + 2 * params.t_p2p.value()) *
                static_cast<double>(params.microbatches * params.stages));
}

/// CostSignature structural invariants via the analyzer, across strategies.
TEST(Signature, LintCleanAcrossMatrix) {
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 512);
  for (const Case& c : preset_matrix()) {
    search::SearchOptions sopts;
    sopts.strategy = c.strategy;
    sopts.global_batch = c.global_batch;
    const auto configs = search::expand_candidates(c.mdl, sys, sopts);
    for (std::size_t i = 0; i < configs.size(); i += 11) {
      const parallel::ParallelConfig& cfg = configs[i];
      if (cfg.invalid_reason(c.mdl, sys, c.global_batch)) continue;
      const parallel::LayerCost layer = parallel::build_layer(
          c.mdl, cfg, cfg.local_microbatch(c.global_batch));
      const core::CostSignature sig =
          core::compile_signature(c.mdl, cfg, c.global_batch, layer);
      const auto report = analysis::lint_signature(c.mdl, cfg, sig, layer);
      EXPECT_TRUE(report.clean())
          << c.name << " " << cfg.describe() << "\n" << report.summary();
    }
  }
}

/// The lint must actually fire on a corrupted signature.
TEST(Signature, LintDetectsCorruption) {
  const auto mdl = model::gpt3_175b();
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 64);
  search::SearchOptions sopts;
  sopts.strategy = parallel::TpStrategy::TP1D;
  sopts.global_batch = 256;
  for (const auto& cfg : search::expand_candidates(mdl, sys, sopts)) {
    if (cfg.invalid_reason(mdl, sys, 256)) continue;
    const parallel::LayerCost layer =
        parallel::build_layer(mdl, cfg, cfg.local_microbatch(256));
    core::CostSignature sig = core::compile_signature(mdl, cfg, 256, layer);
    for (Flops& f : sig.fwd_flops) f = f * 2.0;
    const auto doubled = analysis::lint_signature(mdl, cfg, sig, layer);
    EXPECT_FALSE(doubled.clean());
    sig = core::compile_signature(mdl, cfg, 256, layer);
    // One op short in every per-op column.
    for (auto* col : {&sig.fwd_flops, &sig.bwd_flops}) col->pop_back();
    for (auto* col : {&sig.fwd_bytes, &sig.bwd_bytes}) col->pop_back();
    for (auto* col : {&sig.fwd_comm_begin, &sig.fwd_comm_count,
                      &sig.bwd_comm_begin, &sig.bwd_comm_count}) {
      col->pop_back();
    }
    sig.panels.pop_back();
    sig.tensor_core.pop_back();
    const auto truncated = analysis::lint_signature(mdl, cfg, sig, layer);
    EXPECT_FALSE(truncated.clean());
    return;
  }
  FAIL() << "no valid candidate found";
}

/// The cache key deliberately excludes interleave and the NVS placement:
/// both enter only at time time, so all expansion points of one hardware-
/// free slice must share a single compiled signature.
TEST(Signature, CacheSharesAcrossInterleaveAndPlacement) {
  const auto mdl = model::gpt3_1t();
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 512);
  search::SearchOptions sopts;
  sopts.strategy = parallel::TpStrategy::TP1D;
  sopts.global_batch = 4096;
  search::LayerCostCache layers;
  search::SignatureCache cache;
  for (const auto& cfg : search::expand_candidates(mdl, sys, sopts)) {
    if (cfg.invalid_reason(mdl, sys, 4096)) continue;
    if (mdl.depth / cfg.np % 2 != 0 || cfg.np <= 1) continue;
    parallel::ParallelConfig a = cfg;
    parallel::ParallelConfig b = cfg;
    b.interleave = 2;
    parallel::ParallelConfig c = cfg;
    c.nvs1 = cfg.n1 > 1 ? 2 : 1;
    const auto sa = cache.get(mdl, a, 4096, {}, layers);
    const auto sb = cache.get(mdl, b, 4096, {}, layers);
    const auto sc = cache.get(mdl, c, 4096, {}, layers);
    EXPECT_EQ(sa.get(), sb.get());
    EXPECT_EQ(sa.get(), sc.get());
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
    return;
  }
  FAIL() << "no candidate with interleavable np found";
}

/// Concurrent gets on one shared cache: every thread must observe the same
/// compiled object, and the compile count must stay at the distinct-key
/// count. Runs under the tsan preset.
TEST(Signature, CacheIsThreadSafe) {
  const auto mdl = model::gpt3_175b();
  const auto sys = system_of(hw::GpuGeneration::B200, 8, 64);
  search::SearchOptions sopts;
  sopts.strategy = parallel::TpStrategy::TP1D;
  sopts.global_batch = 256;
  std::vector<parallel::ParallelConfig> valid;
  for (const auto& cfg : search::expand_candidates(mdl, sys, sopts)) {
    if (!cfg.invalid_reason(mdl, sys, 256)) valid.push_back(cfg);
  }
  ASSERT_GE(valid.size(), 4u);
  valid.resize(4);

  search::LayerCostCache layers;
  search::SignatureCache cache;
  std::vector<std::vector<const core::CostSignature*>> seen(4);
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        for (const auto& cfg : valid) {
          seen[t].push_back(cache.get(mdl, cfg, 256, {}, layers).get());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(cache.compiles(), valid.size());
  EXPECT_EQ(cache.compiles() + cache.hits(), 4u * 50u * valid.size());
  for (std::size_t t = 1; t < 4; ++t) EXPECT_EQ(seen[t], seen[0]);
}

/// PanelRoofline must construct with both attribution fields (and the panel
/// budget) reading exactly Seconds(0): panel_roofline assigns only the
/// dominant side, so the other is whatever construction left there.
TEST(Signature, PanelRooflineZeroInitialized) {
  const core::PanelRoofline pr;
  EXPECT_EQ(pr.compute.value(), 0.0);
  EXPECT_EQ(pr.memory.value(), 0.0);
  EXPECT_EQ(pr.t_panel.value(), 0.0);
  // And a computed roofline keeps the non-dominant side exactly zero, in
  // both dominance directions.
  const hw::GpuSpec gpu = system_of(hw::GpuGeneration::A100, 8, 8).gpu;
  const auto flop_bound =
      core::panel_roofline(Flops(1e18), Bytes(1), 1, true, gpu);
  EXPECT_GT(flop_bound.compute.value(), 0.0);
  EXPECT_EQ(flop_bound.memory.value(), 0.0);
  const auto mem_bound =
      core::panel_roofline(Flops(1), Bytes(1e12), 1, false, gpu);
  EXPECT_EQ(mem_bound.compute.value(), 0.0);
  EXPECT_GT(mem_bound.memory.value(), 0.0);
}

void expect_bind_bitwise(const core::SystemTiming& ref,
                         const core::SystemTiming& got,
                         const std::string& label) {
  EXPECT_EQ(ref.time_compute, got.time_compute) << label;
  EXPECT_EQ(ref.time_memory, got.time_memory) << label;
  EXPECT_EQ(ref.optimizer, got.optimizer) << label;
  EXPECT_EQ(ref.fwd_cm.value(), got.fwd_cm.value()) << label;
  EXPECT_EQ(ref.bwd_cm.value(), got.bwd_cm.value()) << label;
  EXPECT_EQ(ref.head_fwd_cm.value(), got.head_fwd_cm.value()) << label;
  EXPECT_EQ(ref.head_bwd_cm.value(), got.head_bwd_cm.value()) << label;
  ASSERT_EQ(ref.summa_panel_time.size(), got.summa_panel_time.size()) << label;
  for (std::size_t i = 0; i < ref.summa_panel_time.size(); ++i) {
    EXPECT_EQ(ref.summa_panel_time[i][0].value(),
              got.summa_panel_time[i][0].value())
        << label;
    EXPECT_EQ(ref.summa_panel_time[i][1].value(),
              got.summa_panel_time[i][1].value())
        << label;
  }
}

/// Randomized property (fixed seed): time_placements_batch over a full
/// enumerated placement set must equal the oracle evaluate_with_layer per
/// placement, bit for bit, across random candidates, systems and
/// EvalOptions variants — the randomized twin of GoldenEquivalenceMatrix.
TEST(Signature, BatchedTimingMatchesOracleRandomized) {
  std::mt19937 rng(0x5157eeu);
  const auto variants = eval_variants();
  const std::vector<hw::SystemConfig> systems = {
      system_of(hw::GpuGeneration::A100, 4, 256),
      system_of(hw::GpuGeneration::H200, 8, 256),
      system_of(hw::GpuGeneration::B200, 16, 256)};
  core::BatchScratch scratch;
  std::vector<core::PlacementTiming> batched;
  std::size_t compared = 0;
  for (const Case& c : preset_matrix()) {
    search::SearchOptions sopts;
    sopts.strategy = c.strategy;
    sopts.global_batch = c.global_batch;
    sopts.allow_zero3 = true;
    sopts.interleave_candidates = {1, 2};
    const auto configs = search::expand_candidates(c.mdl, systems[0], sopts);
    ASSERT_FALSE(configs.empty()) << c.name;
    std::uniform_int_distribution<std::size_t> pick_cfg(0, configs.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_sys(0, systems.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_eval(0,
                                                         variants.size() - 1);
    for (int draw = 0; draw < 16; ++draw) {
      parallel::ParallelConfig cfg = configs[pick_cfg(rng)];
      const hw::SystemConfig& sys = systems[pick_sys(rng)];
      const core::EvalOptions& eval = variants[pick_eval(rng)];
      if (cfg.invalid_reason(c.mdl, sys, c.global_batch)) continue;
      const auto placements =
          search::enumerate_placements(cfg, sys.nvs_domain);
      if (placements.empty()) continue;
      const parallel::LayerCost layer = parallel::build_layer(
          c.mdl, cfg, cfg.local_microbatch(c.global_batch));
      const core::CostSignature sig =
          core::compile_signature(c.mdl, cfg, c.global_batch, layer, eval);
      const core::BatchedSignature& bat = sig;
      const core::SystemTiming base = core::bind_system(sig, sys, eval);
      core::time_placements_batch(sig, bat, base, sys, cfg, placements, eval,
                                  batched, &scratch);
      ASSERT_EQ(batched.size(), placements.size());
      for (std::size_t p = 0; p < placements.size(); ++p) {
        cfg.nvs1 = placements[p][0];
        cfg.nvs2 = placements[p][1];
        cfg.nvsp = placements[p][2];
        cfg.nvsd = placements[p][3];
        const core::EvalResult ref = core::evaluate_with_layer(
            c.mdl, sys, cfg, c.global_batch, layer, eval);
        expect_oracle_bitwise(ref, batched[p], sig, sys,
                              c.name + " " + cfg.describe() + " placement " +
                                  std::to_string(p));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 200u);
}

/// Randomized property (fixed seed): FabricPricer::place/place_ref/price
/// must reproduce the full collective_time walk bitwise across random
/// fabrics (two-level, oversubscribed leaf/spine, rail-optimized), algorithm
/// knob combinations, group placements, collectives and volumes — the
/// contract the batch kernel's pricing rows stand on. Also pins place_ref's
/// stable-reference guarantee: memo entries keep their address and bits as
/// later placements are interned.
TEST(Signature, FabricPricerMatchesCollectiveTimeFuzz) {
  std::mt19937 rng(0xfab41cu);
  std::vector<hw::Topology> fabrics;
  for (hw::GpuGeneration gen :
       {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
        hw::GpuGeneration::B200}) {
    const hw::NetworkSpec net = hw::network_preset(gen);
    fabrics.push_back(hw::two_level_topology(net, 8, 4096));
    fabrics.push_back(hw::leaf_spine_topology(net, 8, 32, 4096, 4.0));
    fabrics.push_back(hw::rail_optimized_topology(net, 16, 64, 4096));
  }
  const std::vector<ops::Collective> colls = {
      ops::Collective::AllGather, ops::Collective::ReduceScatter,
      ops::Collective::AllReduce, ops::Collective::Broadcast,
      ops::Collective::Reduce,    ops::Collective::AllToAll,
      ops::Collective::PointToPoint};
  const std::vector<std::int64_t> sizes = {1, 2, 4, 8, 16, 64, 256, 4096};
  std::uniform_int_distribution<std::size_t> pick_coll(0, colls.size() - 1);
  std::uniform_int_distribution<std::size_t> pick_size(0, sizes.size() - 1);
  std::uniform_real_distribution<double> pick_log_bytes(0.0, 9.0);
  std::size_t compared = 0;
  for (hw::Topology topo : fabrics) {
    for (int knobs = 0; knobs < 4; ++knobs) {
      topo.enable_tree = (knobs & 1) != 0;
      topo.enable_ll = (knobs & 1) != 0;
      topo.enable_hierarchical = (knobs & 2) != 0;
      const comm::FabricPricer pricer(topo);
      for (int draw = 0; draw < 64; ++draw) {
        const std::int64_t size = sizes[pick_size(rng)];
        std::vector<std::int64_t> divisors;
        for (std::int64_t d = 1; d <= size; ++d) {
          if (size % d == 0 && d <= topo.leaf_fan_in()) divisors.push_back(d);
        }
        std::uniform_int_distribution<std::size_t> pick_nvs(
            0, divisors.size() - 1);
        const comm::GroupPlacement g{size, divisors[pick_nvs(rng)]};
        if (comm::invalid_placement_reason(topo, g)) continue;
        const Bytes bytes(std::pow(10.0, pick_log_bytes(rng)));
        ops::Collective coll = colls[pick_coll(rng)];
        if (coll == ops::Collective::PointToPoint && g.size != 2) {
          coll = ops::Collective::AllReduce;
        }
        const double want = comm::collective_time(topo, coll, bytes, g).value();
        const comm::FabricPricer::Placed pl = pricer.place(g);
        const comm::FabricPricer::Placed& ref = pricer.place_ref(g);
        EXPECT_EQ(pricer.price(coll, bytes, pl).value(), want)
            << topo.describe() << " knobs=" << knobs << " g=" << g.size << "/"
            << g.nvs << " coll=" << static_cast<int>(coll);
        EXPECT_EQ(pricer.price(coll, bytes, ref).value(), want)
            << topo.describe() << " [place_ref]";
        ++compared;
      }
      // Stable references: interning more placements must not move or
      // change the bits of an entry handed out earlier.
      const comm::FabricPricer::Placed& first =
          pricer.place_ref(comm::GroupPlacement{8, 8});
      const double lat0 = first.ring_lat.value();
      for (std::int64_t s : sizes) {
        pricer.place_ref(comm::GroupPlacement{s, 1});
      }
      EXPECT_EQ(&first, &pricer.place_ref(comm::GroupPlacement{8, 8}));
      EXPECT_EQ(first.ring_lat.value(), lat0);
    }
  }
  EXPECT_GT(compared, 500u);
}

/// Randomized property (fixed seed): the generation-major kernel path — a
/// bind_block + finish_bind bind plus an external FabricPricer bound to the
/// point's resolved fabric — must equal the oracle evaluate_with_layer per
/// placement, bitwise, across random candidates, systems and EvalOptions.
/// This is the exact configuration the sweep chain runs (point_scan.cpp),
/// where base.fabric is never populated and every collective prices
/// through the chain's pricer.
TEST(Signature, BatchedExternalPricerMatchesScalarFuzz) {
  std::mt19937 rng(0x9e4e7au);
  const auto variants = eval_variants();
  const std::vector<hw::SystemConfig> systems = {
      system_of(hw::GpuGeneration::A100, 4, 256),
      system_of(hw::GpuGeneration::H200, 8, 256),
      system_of(hw::GpuGeneration::B200, 16, 256)};
  core::BatchScratch scratch;
  comm::FabricPricer pricer;
  std::vector<core::PlacementTiming> batched;
  std::size_t compared = 0;
  for (const Case& c : preset_matrix()) {
    search::SearchOptions sopts;
    sopts.strategy = c.strategy;
    sopts.global_batch = c.global_batch;
    sopts.allow_zero3 = true;
    sopts.interleave_candidates = {1, 2};
    const auto configs = search::expand_candidates(c.mdl, systems[0], sopts);
    ASSERT_FALSE(configs.empty()) << c.name;
    std::uniform_int_distribution<std::size_t> pick_cfg(0, configs.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_sys(0, systems.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_eval(0,
                                                         variants.size() - 1);
    for (int draw = 0; draw < 12; ++draw) {
      parallel::ParallelConfig cfg = configs[pick_cfg(rng)];
      const hw::SystemConfig& sys = systems[pick_sys(rng)];
      const core::EvalOptions& eval = variants[pick_eval(rng)];
      if (cfg.invalid_reason(c.mdl, sys, c.global_batch)) continue;
      const auto placements = search::enumerate_placements(cfg, sys.nvs_domain);
      if (placements.empty()) continue;
      const parallel::LayerCost layer = parallel::build_layer(
          c.mdl, cfg, cfg.local_microbatch(c.global_batch));
      const core::CostSignature sig =
          core::compile_signature(c.mdl, cfg, c.global_batch, layer, eval);
      const core::BatchedSignature& bat = sig;
      // The chain configuration: fabric held by the caller, pricer rebound
      // to it, the bind finished from the block's sums with no fabric copy.
      const hw::Topology fabric = sys.resolved_fabric();
      pricer.rebind(fabric);
      core::SystemTiming base;
      core::finish_bind(core::bind_block(bat, sys, eval), sig, sys, base);
      core::time_placements_batch(sig, bat, base, sys, cfg, placements, eval,
                                  batched, &scratch, &pricer);
      ASSERT_EQ(batched.size(), placements.size());
      for (std::size_t p = 0; p < placements.size(); ++p) {
        cfg.nvs1 = placements[p][0];
        cfg.nvs2 = placements[p][1];
        cfg.nvsp = placements[p][2];
        cfg.nvsd = placements[p][3];
        const core::EvalResult ref = core::evaluate_with_layer(
            c.mdl, sys, cfg, c.global_batch, layer, eval);
        expect_oracle_bitwise(ref, batched[p], sig, sys,
                              c.name + " " + cfg.describe() + " placement " +
                                  std::to_string(p));
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 200u);
}

/// The placement floor is a lower bound on every placement's timed total,
/// across models (dense, vision, MoE), GPU generations and NVS sizes, TP
/// strategies, fabric shapes with every collective algorithm enabled, and
/// the overlap / recompute / offload / ZeRO-3 / interleave / ring-attention
/// extensions. Candidates are drawn at random from the expanded space.
TEST(PlacementFloor, BelowEveryTimedPlacement) {
  std::mt19937 rng(0x5f10a7u);
  constexpr std::int64_t kGpus = 512;
  const std::vector<model::TransformerConfig> models = {
      model::gpt3_1t(), model::vit_64k(), model::gpt_moe_1t()};
  const std::vector<hw::GpuGeneration> gens = {hw::GpuGeneration::A100,
                                               hw::GpuGeneration::H200,
                                               hw::GpuGeneration::B200};
  const std::vector<std::int64_t> nvs_sizes = {4, 8, 64};
  const std::vector<parallel::TpStrategy> strategies = {
      parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
      parallel::TpStrategy::Summa2D};
  std::vector<core::EvalOptions> evals;
  for (double overlap : {0.0, 0.5, 1.0}) {
    core::EvalOptions e;
    e.tp_overlap = overlap;
    evals.push_back(e);
  }
  {
    core::EvalOptions e;
    e.activation_recompute = true;
    evals.push_back(e);
    e.activation_recompute = false;
    e.activation_offload = 0.5;
    evals.push_back(e);
    e.tp_overlap = 0.5;
    e.activation_recompute = true;
    evals.push_back(e);
  }
  // System k: generation, NVS size and fabric shape (two-level, leaf-spine
  // at oversubscription 4, rail-optimized), LL / tree / hierarchical on.
  std::vector<hw::SystemConfig> systems;
  for (hw::GpuGeneration gen : gens) {
    for (std::int64_t nvs : nvs_sizes) {
      for (int shape = 0; shape < 3; ++shape) {
        hw::SystemConfig sys = system_of(gen, nvs, kGpus);
        sys.net.enable_ll = true;
        sys.net.enable_tree = true;
        const std::int64_t leaf = std::max<std::int64_t>(nvs, 64);
        if (shape == 0) {
          sys.fabric = hw::two_level_topology(sys.net, nvs, kGpus);
        } else if (shape == 1) {
          sys.fabric =
              hw::leaf_spine_topology(sys.net, nvs, leaf, kGpus, 4.0);
        } else {
          sys.fabric = hw::rail_optimized_topology(sys.net, nvs, leaf, kGpus);
        }
        sys.fabric.enable_hierarchical = true;
        systems.push_back(std::move(sys));
      }
    }
  }

  core::BatchScratch scratch;
  comm::FabricPricer pricer;
  std::vector<core::PlacementTiming> timings;
  std::size_t checked = 0, with_comm = 0;
  for (const model::TransformerConfig& mdl : models) {
    for (parallel::TpStrategy strategy : strategies) {
      search::SearchOptions sopts;
      sopts.strategy = strategy;
      sopts.global_batch = 4096;
      sopts.allow_zero3 = true;
      sopts.allow_ring_attention = true;
      sopts.interleave_candidates = {1, 2};
      const auto configs = search::expand_candidates(mdl, systems[0], sopts);
      if (configs.empty()) continue;
      std::uniform_int_distribution<std::size_t> pick_cfg(0,
                                                          configs.size() - 1);
      std::uniform_int_distribution<std::size_t> pick_sys(0,
                                                          systems.size() - 1);
      std::uniform_int_distribution<std::size_t> pick_eval(0,
                                                           evals.size() - 1);
      for (int draw = 0; draw < 24; ++draw) {
        const parallel::ParallelConfig cfg = configs[pick_cfg(rng)];
        const hw::SystemConfig& sys = systems[pick_sys(rng)];
        const core::EvalOptions& eval = evals[pick_eval(rng)];
        if (cfg.invalid_reason(mdl, sys, sopts.global_batch)) continue;
        const auto placements =
            search::enumerate_placements(cfg, sys.nvs_domain);
        if (placements.empty()) continue;
        const core::CostSignature sig =
            core::compile_signature(mdl, cfg, sopts.global_batch, eval);
        const core::BatchedSignature& bat = sig;
        const hw::Topology fabric = sys.resolved_fabric();
        pricer.rebind(fabric);
        const core::SystemTiming base =
            core::bind_system_batched(sig, bat, sys, eval);
        core::time_placements_batch(sig, bat, base, sys, cfg, placements, eval,
                                    timings, &scratch, &pricer);
        const double floor =
            core::placement_floor(sig, bat, base, pricer, cfg, eval, scratch);
        const double fixed = base.time_compute + base.time_memory;
        EXPECT_GE(floor, fixed) << mdl.name << " " << cfg.describe();
        if (floor > fixed + base.optimizer) ++with_comm;
        for (std::size_t i = 0; i < timings.size(); ++i) {
          EXPECT_LE(floor, timings[i].time.total())
              << mdl.name << " " << cfg.describe() << " on "
              << sys.gpu.name << " nvs" << sys.nvs_domain << " fabric depth "
              << fabric.depth() << " placement " << i;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 500u);
  EXPECT_GT(with_comm, 50u);
}

/// EvalOptions outside [0, 1] are rejected before any work, naming the
/// field and the value: above full overlap exposed communication turns
/// negative and the placement floor stops being a bound. The boundaries
/// are in the domain. (find_optimal, run_sweep and run_codesign are
/// checked beside their own screen tests.)
TEST(EvalOptions, RejectedOutsideUnitInterval) {
  const auto mdl = model::gpt3_175b();
  const hw::SystemConfig sys = system_of(hw::GpuGeneration::B200, 8, 256);
  parallel::ParallelConfig cfg;
  cfg.n1 = 8;
  cfg.np = 8;
  cfg.nd = 4;
  cfg.microbatches = 8;
  for (const bool overlap : {true, false}) {
    const std::string field = overlap ? "tp_overlap" : "activation_offload";
    for (const double bad : {1.5, -0.1, std::nan("")}) {
      core::EvalOptions eval;
      (overlap ? eval.tp_overlap : eval.activation_offload) = bad;
      std::ostringstream value;
      value << bad;
      try {
        eval.validate();
        ADD_FAILURE() << field << " = " << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(field), std::string::npos) << what;
        EXPECT_NE(what.find(value.str()), std::string::npos) << what;
      }
      EXPECT_THROW(search::best_placement(mdl, sys, cfg, 1024, eval),
                   std::invalid_argument)
          << field << " = " << bad;
      search::ServePlanOptions serve;
      serve.eval = eval;
      EXPECT_THROW(search::run_serve_plan(mdl, sys, serve),
                   std::invalid_argument)
          << field << " = " << bad;
    }
  }
  for (const double edge : {0.0, 1.0}) {
    core::EvalOptions eval;
    eval.tp_overlap = edge;
    eval.activation_offload = edge;
    EXPECT_NO_THROW(eval.validate()) << edge;
  }
}

/// The engines' block/tail split against the whole-signature path, bit for
/// bit: per (system, options), every candidate's block is lowered, bound
/// and — where core::floor_walk_per_block allows — floor-walked ONCE and
/// shared by every later candidate with the same LayerKey, exactly as
/// find_optimal and scan_point share it; the candidate compiles its tail
/// and finishes bind and floor from the block's sums. The reference is
/// compile_signature -> bind_system_batched ->
/// placement_floor -> time_placements_batch on the same candidate. Every
/// tail and SystemTiming field, the floor and every PlacementTiming must
/// match exactly. GPT-MoE-1T at 1024 GPUs has MoE blocks (AllToAll over the
/// DP group) shared by candidates of different nd, so a walk wrongly
/// shared across nd is caught.
TEST(BlockTail, MatchesWholeSignatureBitwise) {
  constexpr std::int64_t kGpus = 1024;
  constexpr std::int64_t kBatch = 1024;
  const std::vector<model::TransformerConfig> models = {
      model::gpt3_1t(), model::vit_64k(), model::gpt_moe_1t()};
  const std::vector<parallel::TpStrategy> strategies = {
      parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
      parallel::TpStrategy::Summa2D};
  std::vector<hw::SystemConfig> systems;
  for (hw::GpuGeneration gen :
       {hw::GpuGeneration::A100, hw::GpuGeneration::B200}) {
    for (std::int64_t nvs : {4, 64}) {
      systems.push_back(system_of(gen, nvs, kGpus));
    }
  }
  std::vector<core::EvalOptions> evals;
  for (double overlap : {0.0, 0.5, 1.0}) {
    core::EvalOptions e;
    e.tp_overlap = overlap;
    evals.push_back(e);
  }
  {
    core::EvalOptions e;
    e.activation_recompute = true;
    e.tp_overlap = 0.5;
    evals.push_back(e);
    e.activation_recompute = false;
    e.activation_offload = 0.5;
    evals.push_back(e);
  }

  struct Block {
    core::BatchedSignature bat;
    core::BlockTiming part;
    core::CommWalk walk;
    std::int64_t first_nd = 0;
  };
  core::BatchScratch ref_scratch, scratch;
  std::vector<core::PlacementTiming> ref_timings, timings;
  std::size_t checked = 0, shared_walks = 0, moe_shared_across_nd = 0;
  for (const model::TransformerConfig& mdl : models) {
    for (parallel::TpStrategy strategy : strategies) {
      search::SearchOptions sopts;
      sopts.strategy = strategy;
      sopts.global_batch = kBatch;
      sopts.allow_zero3 = true;
      sopts.allow_ring_attention = true;
      sopts.interleave_candidates = {1, 2};
      std::vector<parallel::ParallelConfig> configs;
      {
        const auto all = search::expand_candidates(mdl, systems[0], sopts);
        // A deterministic spread plus every MoE candidate whose block is
        // shared across nd (nd at or above the expert count).
        const std::size_t stride = std::max<std::size_t>(1, all.size() / 40);
        for (std::size_t i = 0; i < all.size(); ++i) {
          if (i % stride == 0 ||
              (mdl.is_moe() && all[i].nd >= mdl.moe_experts)) {
            configs.push_back(all[i]);
          }
        }
      }
      for (const hw::SystemConfig& sys : systems) {
        const hw::Topology fabric = sys.resolved_fabric();
        const comm::FabricPricer pricer(fabric);
        for (const core::EvalOptions& eval : evals) {
          std::vector<std::pair<search::LayerKey, Block>> blocks;
          for (const parallel::ParallelConfig& cfg : configs) {
            if (cfg.invalid_reason(mdl, sys, kBatch)) continue;
            const auto placements =
                search::enumerate_placements(cfg, sys.nvs_domain);
            if (placements.empty()) continue;
            const std::string label = mdl.name + " " + cfg.describe() +
                                      " on " + sys.gpu.name + " nvs" +
                                      std::to_string(sys.nvs_domain);

            const core::CostSignature sig =
                core::compile_signature(mdl, cfg, kBatch, eval);
            const core::BatchedSignature& ref_bat = sig;
            const core::SystemTiming ref_base =
                core::bind_system_batched(sig, ref_bat, sys, eval);
            const double ref_floor = core::placement_floor(
                sig, ref_bat, ref_base, pricer, cfg, eval, ref_scratch);
            core::time_placements_batch(sig, ref_bat, ref_base, sys, cfg,
                                        placements, eval, ref_timings,
                                        &ref_scratch, &pricer);

            const search::LayerKey key = search::layer_key(mdl, cfg, kBatch);
            auto it = std::find_if(blocks.begin(), blocks.end(),
                                   [&](const auto& b) { return b.first == key; });
            if (it == blocks.end()) {
              Block b;
              b.bat = search::lower_block(mdl, cfg, kBatch);
              b.part = core::bind_block(b.bat, sys, eval);
              b.first_nd = cfg.nd;
              if (core::floor_walk_per_block(b.bat)) {
                b.walk = core::floor_comm_walk(b.bat, b.part.summa_panel_time,
                                               fabric, cfg, eval,
                                               scratch.row_floor);
              }
              blocks.emplace_back(key, std::move(b));
              it = std::prev(blocks.end());
            } else if (core::floor_walk_per_block(it->second.bat)) {
              ++shared_walks;
            } else if (cfg.nd != it->second.first_nd) {
              ++moe_shared_across_nd;
            }
            const Block& blk = it->second;
            const core::SignatureTail tail =
                core::compile_tail(mdl, cfg, kBatch, blk.bat, eval);
            core::SystemTiming base;
            core::finish_bind(blk.part, tail, sys, base);
            const core::CommWalk walk =
                core::floor_walk_per_block(blk.bat)
                    ? blk.walk
                    : core::floor_comm_walk(blk.bat, blk.part.summa_panel_time,
                                            fabric, cfg, eval,
                                            scratch.row_floor);
            const double floor =
                core::finish_placement_floor(walk, tail, blk.bat, base, cfg);
            core::time_placements_batch(tail, blk.bat, base, sys, cfg,
                                        placements, eval, timings, &scratch,
                                        &pricer);

            EXPECT_EQ(tail.layers_per_stage, sig.layers_per_stage) << label;
            EXPECT_EQ(tail.microbatches, sig.microbatches) << label;
            EXPECT_EQ(tail.dp_size, sig.dp_size) << label;
            EXPECT_EQ(tail.dp_grad_bytes.value(), sig.dp_grad_bytes.value())
                << label;
            EXPECT_EQ(tail.optimizer_traffic.value(),
                      sig.optimizer_traffic.value())
                << label;
            EXPECT_EQ(tail.mem.weights.value(), sig.mem.weights.value())
                << label;
            EXPECT_EQ(tail.mem.gradients.value(), sig.mem.gradients.value())
                << label;
            EXPECT_EQ(tail.mem.optimizer.value(), sig.mem.optimizer.value())
                << label;
            EXPECT_EQ(tail.mem.activations.value(),
                      sig.mem.activations.value())
                << label;
            expect_bind_bitwise(ref_base, base, label);
            EXPECT_EQ(ref_floor, floor) << label;
            ASSERT_EQ(ref_timings.size(), timings.size()) << label;
            for (std::size_t i = 0; i < timings.size(); ++i) {
              expect_pt_bitwise(ref_timings[i], timings[i],
                                label + " placement " + std::to_string(i));
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000u);
  EXPECT_GT(shared_walks, 200u);
  EXPECT_GT(moe_shared_across_nd, 1000u);
}

/// The sweep engine must return, at every grid point, exactly the result
/// find_optimal computes at that point — configuration, placement, time and
/// memory bits.
TEST(Sweep, MatchesFindOptimalPerPoint) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::B200}, {4, 16}, 256);
  ASSERT_EQ(points.size(), 4u);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 1024;
  opts.threads = 2;
  const auto swept = search::run_sweep(mdl, points, opts);
  ASSERT_EQ(swept.best.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto direct = search::find_optimal(mdl, points[i], opts.search);
    ASSERT_EQ(swept.best[i].feasible, direct.best.feasible) << i;
    if (!direct.best.feasible) continue;
    EXPECT_EQ(swept.best[i].cfg.describe(), direct.best.cfg.describe());
    EXPECT_EQ(swept.best[i].iteration(), direct.best.iteration());
    EXPECT_EQ(swept.best[i].mem.total().value(),
              direct.best.mem.total().value());
  }
  EXPECT_EQ(swept.stats.points, points.size());
  EXPECT_GT(swept.stats.bound_pruned, 0u);
  EXPECT_GT(swept.stats.signature_cache_hits, 0u);
  EXPECT_GT(swept.stats.signature_compiles, 0u);
}

/// Per-point counters must not depend on the worker count.
TEST(Sweep, CountersThreadInvariant) {
  const auto mdl = model::gpt3_175b();
  const auto points = search::hardware_grid(
      {hw::GpuGeneration::B200}, {4, 8, 16}, 128);
  search::SweepOptions opts;
  opts.search.strategy = parallel::TpStrategy::TP1D;
  opts.search.global_batch = 512;
  opts.threads = 1;
  const auto one = search::run_sweep(mdl, points, opts);
  opts.threads = 4;
  const auto four = search::run_sweep(mdl, points, opts);
  EXPECT_EQ(one.evaluated_per_point, four.evaluated_per_point);
  EXPECT_EQ(one.stats.evaluated, four.stats.evaluated);
  EXPECT_EQ(one.stats.bound_pruned, four.stats.bound_pruned);
  EXPECT_EQ(one.stats.memory_pruned, four.stats.memory_pruned);
  EXPECT_EQ(one.stats.signature_compiles, four.stats.signature_compiles);
  EXPECT_EQ(one.stats.candidates, four.stats.candidates);
}

TEST(Sweep, HardwareGridOrderAndShape) {
  const auto grid = search::hardware_grid(
      {hw::GpuGeneration::A100, hw::GpuGeneration::H200}, {8, 64}, 2048);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].nvs_domain, 8);
  EXPECT_EQ(grid[1].nvs_domain, 64);
  for (const auto& sys : grid) EXPECT_EQ(sys.n_gpus, 2048);
  // Generations outer: the first two entries share the A100 GPU spec.
  EXPECT_EQ(grid[0].gpu.name, grid[1].gpu.name);
  EXPECT_NE(grid[1].gpu.name, grid[2].gpu.name);
}

TEST(Sweep, EmptyGrid) {
  const auto mdl = model::gpt3_175b();
  const auto r = search::run_sweep(mdl, {}, {});
  EXPECT_TRUE(r.best.empty());
  EXPECT_EQ(r.stats.points, 0u);
}

}  // namespace
}  // namespace tfpe
