// Phase-generic execution model: the Workload axis and its Training-phase
// adapter. The load-bearing contract is bitwise: compiling through
// Workload::training() must reproduce the legacy training lowering —
// signature, timing and search optimum — double for double, so the phase
// refactor cannot move any published number.

#include <gtest/gtest.h>

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

/// Exact double-for-double comparison — the Training adapter must be an
/// identity on the evaluation pipeline, not an approximation of it.
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
  EXPECT_EQ(core::Workload::training().phase,
            core::ExecutionPhase::kTraining);
  EXPECT_TRUE(core::Workload::training().is_training());
  const auto p = core::Workload::prefill(2048, 256);
  EXPECT_EQ(p.phase, core::ExecutionPhase::kPrefill);
  EXPECT_EQ(p.prompt_len, 2048);
  EXPECT_EQ(p.output_len, 256);
  EXPECT_FALSE(p.is_training());
  const auto d = core::Workload::decode(2048, 256);
  EXPECT_EQ(d.phase, core::ExecutionPhase::kDecode);
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

/// The golden matrix: legacy compile vs Workload::training() compile vs the
/// reference evaluator, over models x systems x strategies. All three must
/// agree bitwise.
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
        search::pack_placement(c.cfg, sys.nvs_domain);
        if (c.cfg.invalid_reason(mdl, sys, c.batch)) continue;
        const std::string label =
            mdl.name + "/" + sys.gpu.name + "/" + c.cfg.describe();
        const auto legacy =
            core::compile_signature(mdl, c.cfg, c.batch, opts);
        const auto phased = core::compile_signature(
            mdl, c.cfg, c.batch, core::Workload::training(), opts);
        EXPECT_EQ(phased.phase, core::ExecutionPhase::kTraining) << label;
        const auto ref = core::evaluate(mdl, sys, c.cfg, c.batch, opts);
        expect_bitwise(
            ref, time_at_placement(legacy, mdl, sys, c.cfg, c.batch, opts),
            label + " legacy");
        expect_bitwise(
            ref, time_at_placement(phased, mdl, sys, c.cfg, c.batch, opts),
            label + " workload");
      }
    }
  }
}

/// The search optimum is unchanged by the refactor: re-timing the winner's
/// configuration through the Workload::training() path reproduces the
/// result the search itself reported, bitwise.
TEST(Workload, SearchOptimumSurvivesWorkloadPath) {
  const auto mdl = model::gpt3_175b();
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  search::SearchOptions opts;
  opts.global_batch = 256;
  const auto run = search::find_optimal(mdl, sys, opts);
  ASSERT_TRUE(run.best.feasible);
  const auto sig = core::compile_signature(
      mdl, run.best.cfg, opts.global_batch, core::Workload::training(), {});
  expect_bitwise(run.best,
                 time_at_placement(sig, mdl, sys, run.best.cfg,
                                   opts.global_batch, {}),
                 "optimum");
}

TEST(Workload, AdaptToPhaseZeroesBackwardAndKeepsSourceIntact) {
  const auto mdl = model::gpt3_175b();
  parallel::ParallelConfig cfg;
  cfg.strategy = TpStrategy::TP1D;
  cfg.n1 = 8;
  cfg.np = 2;
  cfg.microbatches = 2;
  cfg.nvs1 = 8;
  const auto src = core::compile_signature(mdl, cfg, 2, core::EvalOptions{});
  const auto before_bwd = src.matmul_bwd_flops.value();
  ASSERT_GT(before_bwd, 0.0);
  const auto adapted =
      core::adapt_to_phase(src, core::ExecutionPhase::kPrefill);
  EXPECT_EQ(adapted.phase, core::ExecutionPhase::kPrefill);
  EXPECT_EQ(adapted.matmul_bwd_flops.value(), 0.0);
  EXPECT_EQ(adapted.vector_bwd_flops.value(), 0.0);
  EXPECT_EQ(adapted.dp_grad_bytes.value(), 0.0);
  EXPECT_EQ(adapted.optimizer_traffic.value(), 0.0);
  EXPECT_EQ(adapted.mem.gradients.value(), 0.0);
  EXPECT_EQ(adapted.mem.optimizer.value(), 0.0);
  for (const auto& op : adapted.ops) {
    EXPECT_EQ(op.bwd_flops.value(), 0.0);
    EXPECT_EQ(op.bwd_bytes.value(), 0.0);
    EXPECT_EQ(op.bwd_comm_count, 0u);
  }
  // The forward side and the source signature are untouched.
  EXPECT_EQ(adapted.matmul_fwd_flops.value(), src.matmul_fwd_flops.value());
  EXPECT_EQ(adapted.mem.weights.value(), src.mem.weights.value());
  EXPECT_EQ(src.matmul_bwd_flops.value(), before_bwd);
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
