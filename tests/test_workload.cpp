// Phase-generic execution model: the Workload axis and the training
// lowering under it. The load-bearing contract is bitwise: the training
// lowering timed through the batched kernel must reproduce the reference
// evaluator and the search optimum double for double, so the phase axis
// cannot move any published number.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include <vector>

#include "core/cost_signature.hpp"
#include "core/estimate.hpp"
#include "core/evaluator.hpp"
#include "core/training_estimate.hpp"
#include "core/workload.hpp"
#include "search/search.hpp"

namespace tfpe {
namespace {

using parallel::TpStrategy;

/// Exact double-for-double comparison — the kernel must reproduce the
/// evaluation pipeline, not approximate it.
void expect_bitwise(const core::EvalResult& ref, const core::EvalResult& got,
                    const std::string& label) {
  ASSERT_EQ(ref.feasible, got.feasible) << label;
  EXPECT_EQ(ref.reason, got.reason) << label;
  EXPECT_EQ(ref.time.compute, got.time.compute) << label;
  EXPECT_EQ(ref.time.memory, got.time.memory) << label;
  EXPECT_EQ(ref.time.tp_comm, got.time.tp_comm) << label;
  EXPECT_EQ(ref.time.pp_comm, got.time.pp_comm) << label;
  EXPECT_EQ(ref.time.dp_comm, got.time.dp_comm) << label;
  EXPECT_EQ(ref.time.bubble, got.time.bubble) << label;
  EXPECT_EQ(ref.time.optimizer, got.time.optimizer) << label;
  EXPECT_EQ(ref.t_fwd_micro, got.t_fwd_micro) << label;
  EXPECT_EQ(ref.t_bwd_micro, got.t_bwd_micro) << label;
  EXPECT_EQ(ref.mem.weights.value(), got.mem.weights.value()) << label;
  EXPECT_EQ(ref.mem.gradients.value(), got.mem.gradients.value()) << label;
  EXPECT_EQ(ref.mem.optimizer.value(), got.mem.optimizer.value()) << label;
  EXPECT_EQ(ref.mem.activations.value(), got.mem.activations.value())
      << label;
  EXPECT_EQ(ref.mem.kv_cache.value(), got.mem.kv_cache.value()) << label;
}

/// A compiled signature timed at cfg's own placement through the batched
/// kernel, packaged as an EvalResult: a one-placement scan.
core::EvalResult time_at_placement(const core::CostSignature& sig,
                                   const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const parallel::ParallelConfig& cfg,
                                   std::int64_t batch,
                                   const core::EvalOptions& opts) {
  std::size_t evals = 0;
  return search::scan_placements_signature(
      mdl, sys, cfg, batch, sig, core::bind_system(sig, sys, opts),
      {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}}, opts, evals,
      /*stop_after_infeasible=*/true);
}

TEST(Workload, FactoriesCarryThePhase) {
  const auto d = core::Workload::decode(2048, 256);
  EXPECT_EQ(d.phase, core::ExecutionPhase::kDecode);
  EXPECT_EQ(d.prompt_len, 2048);
  EXPECT_EQ(d.output_len, 256);
  // Steady-state decode sees the prompt plus half the generated tokens of
  // cache on average; an explicit kv_len overrides the midpoint.
  EXPECT_DOUBLE_EQ(d.decode_kv_len(), 2048.0 + 128.0);
  core::Workload pinned = d;
  pinned.kv_len = 4096.0;
  EXPECT_DOUBLE_EQ(pinned.decode_kv_len(), 4096.0);
}

TEST(Workload, PhaseNames) {
  EXPECT_STREQ(core::to_string(core::ExecutionPhase::kTraining), "training");
  EXPECT_STREQ(core::to_string(core::ExecutionPhase::kPrefill), "prefill");
  EXPECT_STREQ(core::to_string(core::ExecutionPhase::kDecode), "decode");
}

/// The golden matrix: the training compile timed through the kernel vs the
/// reference evaluator, over models x systems x strategies. They must agree
/// bitwise.
TEST(Workload, TrainingAdapterBitwiseMatrix) {
  struct Case {
    parallel::ParallelConfig cfg;
    std::int64_t batch;
  };
  std::vector<Case> cases;
  {
    parallel::ParallelConfig c;
    c.strategy = TpStrategy::TP1D;
    c.n1 = 8;
    c.np = 2;
    c.nd = 4;
    c.microbatches = 8;
    cases.push_back({c, 128});
  }
  {
    parallel::ParallelConfig c;
    c.strategy = TpStrategy::TP2D;
    c.n1 = 4;
    c.n2 = 2;
    c.np = 2;
    c.nd = 4;
    c.microbatches = 8;
    cases.push_back({c, 128});
  }
  {
    parallel::ParallelConfig c;
    c.strategy = TpStrategy::Summa2D;
    c.n1 = 2;
    c.n2 = 2;
    c.np = 2;
    c.nd = 8;
    c.microbatches = 8;
    c.nb = 4;
    cases.push_back({c, 128});
  }

  const core::EvalOptions opts;
  for (const auto& mdl : {model::gpt3_175b(), model::llama3_405b()}) {
    for (const auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::B200}) {
      const auto sys = hw::make_system(gen, 8, 64);
      for (Case c : cases) {
        c.cfg.pack_placement(sys.nvs_domain);
        if (c.cfg.invalid_reason(mdl, sys, c.batch)) continue;
        const std::string label =
            mdl.name + "/" + sys.gpu.name + "/" + c.cfg.describe();
        const auto legacy =
            core::compile_signature(mdl, c.cfg, c.batch, opts);
        EXPECT_EQ(legacy.phase, core::ExecutionPhase::kTraining) << label;
        const auto ref = core::evaluate(mdl, sys, c.cfg, c.batch, opts);
        expect_bitwise(
            ref, time_at_placement(legacy, mdl, sys, c.cfg, c.batch, opts),
            label);
      }
    }
  }
}

/// Re-timing the search winner's configuration through the training
/// lowering reproduces the result the search itself reported, bitwise.
TEST(Workload, SearchOptimumSurvivesWorkloadPath) {
  const auto mdl = model::gpt3_175b();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  search::SearchOptions opts;
  opts.global_batch = 256;
  const auto run = search::find_optimal(mdl, sys, opts);
  ASSERT_TRUE(run.best.feasible);
  const auto sig =
      core::compile_signature(mdl, run.best.cfg, opts.global_batch);
  expect_bitwise(run.best,
                 time_at_placement(sig, mdl, sys, run.best.cfg,
                                   opts.global_batch, {}),
                 "optimum");
}

TEST(Workload, AdaptToPhaseZeroesBackwardAndKeepsSourceIntact) {
  // With a vocabulary, so the block carries head rows too.
  auto mdl = model::gpt3_175b();
  mdl.vocab = 51200;
  parallel::ParallelConfig cfg;
  cfg.strategy = TpStrategy::TP1D;
  cfg.n1 = 8;
  cfg.np = 2;
  cfg.microbatches = 2;
  cfg.nvs1 = 8;
  const auto src = core::compile_signature(mdl, cfg, 2, core::EvalOptions{});
  const core::CostSignature before = src;
  const auto adapted =
      core::adapt_to_phase(src, core::ExecutionPhase::kPrefill);
  EXPECT_EQ(adapted.phase, core::ExecutionPhase::kPrefill);
  EXPECT_EQ(adapted.dp_grad_bytes.value(), 0.0);
  EXPECT_EQ(adapted.optimizer_traffic.value(), 0.0);
  EXPECT_EQ(adapted.mem.gradients.value(), 0.0);
  EXPECT_EQ(adapted.mem.optimizer.value(), 0.0);
  const auto bits = [](const auto& col) {
    std::vector<std::uint64_t> out;
    for (const auto& v : col) {
      out.push_back(std::bit_cast<std::uint64_t>(v.value()));
    }
    return out;
  };
  // Every backward column of the block is zero, every comm range empty.
  const std::size_t n = src.op_count();
  const std::size_t nh = src.head_fwd_flops.size();
  ASSERT_GT(n, 0u);
  ASSERT_GT(nh, 0u);
  ASSERT_GT(std::ranges::max(src.bwd_flops).value(), 0.0);
  ASSERT_GT(std::ranges::max(src.bwd_comm_count), 0u);
  const std::vector<std::uint64_t> zero_bits(n, 0), zero_head_bits(nh, 0);
  const std::vector<std::uint32_t> no_range(n, 0u);
  EXPECT_EQ(bits(adapted.bwd_flops), zero_bits);
  EXPECT_EQ(bits(adapted.bwd_bytes), zero_bits);
  EXPECT_EQ(adapted.bwd_comm_begin, no_range);
  EXPECT_EQ(adapted.bwd_comm_count, no_range);
  EXPECT_EQ(bits(adapted.head_bwd_flops), zero_head_bits);
  EXPECT_EQ(bits(adapted.head_bwd_bytes), zero_head_bits);
  // Every forward column (and the comm pool) is bitwise the source's.
  EXPECT_EQ(bits(adapted.fwd_flops), bits(src.fwd_flops));
  EXPECT_EQ(bits(adapted.fwd_bytes), bits(src.fwd_bytes));
  EXPECT_EQ(adapted.panels, src.panels);
  EXPECT_EQ(adapted.tensor_core, src.tensor_core);
  EXPECT_EQ(adapted.fwd_comm_begin, src.fwd_comm_begin);
  EXPECT_EQ(adapted.fwd_comm_count, src.fwd_comm_count);
  EXPECT_EQ(adapted.comm_kind, src.comm_kind);
  EXPECT_EQ(adapted.comm_group, src.comm_group);
  EXPECT_EQ(bits(adapted.comm_panel_bytes), bits(src.comm_panel_bytes));
  EXPECT_EQ(bits(adapted.head_fwd_flops), bits(src.head_fwd_flops));
  EXPECT_EQ(bits(adapted.head_fwd_bytes), bits(src.head_fwd_bytes));
  EXPECT_EQ(adapted.head_tensor_core, src.head_tensor_core);
  EXPECT_EQ(adapted.mem.weights.value(), src.mem.weights.value());
  // The source signature is untouched.
  EXPECT_EQ(bits(src.bwd_flops), bits(before.bwd_flops));
  EXPECT_EQ(bits(src.bwd_bytes), bits(before.bwd_bytes));
  EXPECT_EQ(src.bwd_comm_count, before.bwd_comm_count);
  EXPECT_EQ(src.phase, core::ExecutionPhase::kTraining);
  // Forward-only residency: one layer's transient buffers, not the
  // training stash of layers_per_stage of them.
  EXPECT_LT(adapted.mem.activations.value(), src.mem.activations.value());
}

TEST(Workload, TrainingMemoryIgnoresKvCache) {
  // The kv_cache field exists on every breakdown but must stay zero — and
  // cost nothing — on the training path.
  const auto mdl = model::gpt3_175b();
  parallel::ParallelConfig cfg;
  cfg.strategy = TpStrategy::TP1D;
  cfg.n1 = 8;
  cfg.np = 2;
  cfg.microbatches = 2;
  cfg.nvs1 = 8;
  const auto sig = core::compile_signature(mdl, cfg, 2, core::EvalOptions{});
  EXPECT_EQ(sig.mem.kv_cache.value(), 0.0);
  EXPECT_EQ(sig.mem.total().value(),
            (sig.mem.weights + sig.mem.gradients + sig.mem.optimizer +
             sig.mem.activations)
                .value());
}

TEST(Workload, RunLengthHelpersBackTrainingEstimates) {
  // training_estimate now delegates to the shared phase-agnostic helpers;
  // the alias and the arithmetic must agree with the legacy definitions.
  const core::RunLength r = core::run_length(1000, 2.5);
  EXPECT_DOUBLE_EQ(r.total_seconds, 2500.0);
  EXPECT_DOUBLE_EQ(r.days, 2500.0 / 86400.0);
  EXPECT_DOUBLE_EQ(core::tokens_per_unit(4096, 2048), 4096.0 * 2048.0);
  const auto mdl = model::gpt3_175b();
  const core::TrainingEstimate est =
      core::estimate_token_training(mdl, 1536, 2.0, 3e11);
  const double tokens_per_step = 1536.0 * static_cast<double>(mdl.seq_len);
  EXPECT_DOUBLE_EQ(est.steps, 3e11 / tokens_per_step);
  EXPECT_DOUBLE_EQ(est.total_seconds, est.steps * 2.0);
}

}  // namespace
}  // namespace tfpe
