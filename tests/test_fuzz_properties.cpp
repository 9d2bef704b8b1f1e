// Deterministic fuzz / property sweep: drive the evaluator across a large
// pseudo-random sample of (model, system, configuration) points and check
// structural invariants on every one. Catches crashes, NaNs, negative
// times, broken breakdown accounting and feasibility inconsistencies that
// targeted tests might miss.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "core/evaluator.hpp"
#include "parallel/layer_builder.hpp"
#include "search/search.hpp"
#include "search/sweep_lint.hpp"

namespace tfpe {
namespace {

/// Deterministic 64-bit LCG (no std random, reproducible across platforms).
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }
  /// Uniform pick from a list.
  template <typename T>
  T pick(std::initializer_list<T> values) {
    auto it = values.begin();
    std::advance(it, next() % values.size());
    return *it;
  }

 private:
  std::uint64_t state_;
};

model::TransformerConfig random_model(Lcg& rng) {
  model::TransformerConfig m;
  m.name = "fuzz";
  m.seq_len = rng.pick({512L, 1024L, 2048L, 8192L, 64800L});
  m.embed = rng.pick({512L, 1024L, 4096L, 12288L});
  m.heads = rng.pick({8L, 16L, 32L});
  m.depth = rng.pick({4L, 8L, 16L, 48L});
  m.hidden = 4 * m.embed;
  if (rng.next() % 4 == 0) m.kv_heads = m.heads / 2;
  const int kind = static_cast<int>(rng.next() % 4);
  if (kind == 1) {
    m.attention = model::AttentionKind::kWindowed;
    m.window = m.seq_len / 4;
  } else if (kind == 2) {
    m.attention = model::AttentionKind::kLinear;
  } else if (kind == 3 && m.embed <= 4096) {
    m.moe_experts = 8;
    m.moe_top_k = 2;
  }
  m.validate();
  return m;
}

TEST(Fuzz, EvaluatorInvariantsOverRandomSpace) {
  Lcg rng(0xC0FFEE);
  int feasible_seen = 0, invalid_seen = 0, oom_seen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const model::TransformerConfig mdl = random_model(rng);
    const auto gen = rng.pick({hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                               hw::GpuGeneration::B200});
    const std::int64_t nvs = rng.pick({4L, 8L, 64L});
    const std::int64_t n = rng.pick({16L, 64L, 256L, 1024L});
    const hw::SystemConfig sys = hw::make_system(gen, nvs, n);

    parallel::ParallelConfig cfg;
    cfg.strategy = mdl.is_moe()
                       ? rng.pick({parallel::TpStrategy::TP1D,
                                   parallel::TpStrategy::TP2D})
                       : rng.pick({parallel::TpStrategy::TP1D,
                                   parallel::TpStrategy::TP2D,
                                   parallel::TpStrategy::Summa2D});
    cfg.n1 = rng.pick({1L, 2L, 4L, 8L});
    cfg.n2 = cfg.strategy == parallel::TpStrategy::TP1D
                 ? 1
                 : rng.pick({1L, 2L, 4L});
    cfg.np = rng.pick({1L, 2L, 4L});
    cfg.nd = rng.pick({1L, 2L, 8L, 32L});
    cfg.microbatches = rng.pick({1L, 2L, 8L, 32L});
    cfg.nb = cfg.strategy == parallel::TpStrategy::Summa2D
                 ? rng.pick({1L, 2L, 4L})
                 : 1;
    cfg.interleave = rng.pick({1L, 1L, 1L, 2L});
    if (rng.next() % 4 == 0) cfg.zero = parallel::ZeroStage::kWeights;

    core::EvalOptions eopts;
    if (rng.next() % 3 == 0) eopts.tp_overlap = 0.5;
    if (rng.next() % 3 == 0) eopts.activation_offload = 0.5;

    const std::int64_t b = rng.pick({64L, 256L, 4096L});
    const core::EvalResult r = core::evaluate(mdl, sys, cfg, b, eopts);

    if (!r.feasible) {
      EXPECT_FALSE(r.reason.empty()) << trial;
      if (r.reason == "exceeds HBM capacity") {
        ++oom_seen;
        // Even infeasible-on-memory results carry a valid breakdown.
        EXPECT_GT(r.mem.total().value(), sys.gpu.hbm_capacity.value());
      } else {
        ++invalid_seen;
      }
      continue;
    }
    ++feasible_seen;
    // Every feasible point's op list must satisfy the conservation laws.
    // Looser FLOP tolerance: the fuzz grids include extreme aspect ratios
    // where the (2k-1)-vs-2k counting deviation approaches its bound.
    analysis::LintOptions lopts;
    lopts.flop_rtol = 5e-2;
    const analysis::LintReport lint =
        analysis::lint_config(mdl, cfg, cfg.local_microbatch(b), lopts);
    EXPECT_EQ(lint.errors(), 0u) << trial << "\n" << lint.summary();
    const auto& t = r.time;
    for (double part : {t.compute, t.memory, t.tp_comm, t.pp_comm, t.dp_comm,
                        t.bubble, t.optimizer}) {
      EXPECT_GE(part, 0.0) << trial;
      EXPECT_TRUE(std::isfinite(part)) << trial;
    }
    EXPECT_GT(r.iteration(), 0.0) << trial;
    EXPECT_NEAR(r.iteration(),
                t.compute + t.memory + t.tp_comm + t.pp_comm + t.dp_comm +
                    t.bubble + t.optimizer,
                1e-9 * r.iteration())
        << trial;
    EXPECT_GT(r.t_fwd_micro, 0.0) << trial;
    EXPECT_GT(r.t_bwd_micro, r.t_fwd_micro * 0.5) << trial;
    EXPECT_LE(r.mem.total().value(), sys.gpu.hbm_capacity.value()) << trial;
    EXPECT_GT(r.mem.weights.value(), 0.0) << trial;
    if (cfg.np == 1) EXPECT_DOUBLE_EQ(t.bubble, 0.0) << trial;

    // The two-phase path (compile -> bind -> one-placement kernel scan) must
    // reproduce the single-phase evaluator bitwise on every feasible fuzz
    // point, and the compiled signature must satisfy its own conservation
    // laws against the layer it was lowered from.
    const parallel::LayerCost layer =
        parallel::build_layer(mdl, cfg, cfg.local_microbatch(b));
    const core::CostSignature sig =
        core::compile_signature(mdl, cfg, b, layer, eopts);
    const analysis::LintReport slint =
        analysis::lint_signature(mdl, cfg, sig, layer, lopts);
    EXPECT_EQ(slint.errors(), 0u) << trial << "\n" << slint.summary();
    // The batched SoA lowering of every fuzzed signature must mirror it
    // slot for slot (the cross-layer consistency pass, bitwise checks).
    const analysis::LintReport blint =
        analysis::lint_batched(sig, core::lower_batched(sig), lopts);
    EXPECT_EQ(blint.errors(), 0u) << trial << "\n" << blint.summary();
    std::size_t evals = 0;
    const core::EvalResult two = search::scan_placements_signature(
        mdl, sys, cfg, b, sig, core::bind_system(sig, sys, eopts),
        {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}}, eopts, evals,
        /*stop_after_infeasible=*/true);
    EXPECT_EQ(two.feasible, r.feasible) << trial;
    EXPECT_EQ(two.time.compute, t.compute) << trial;
    EXPECT_EQ(two.time.memory, t.memory) << trial;
    EXPECT_EQ(two.time.tp_comm, t.tp_comm) << trial;
    EXPECT_EQ(two.time.pp_comm, t.pp_comm) << trial;
    EXPECT_EQ(two.time.dp_comm, t.dp_comm) << trial;
    EXPECT_EQ(two.time.bubble, t.bubble) << trial;
    EXPECT_EQ(two.time.optimizer, t.optimizer) << trial;
    EXPECT_EQ(two.t_fwd_micro, r.t_fwd_micro) << trial;
    EXPECT_EQ(two.t_bwd_micro, r.t_bwd_micro) << trial;
    EXPECT_EQ(two.mem.total().value(), r.mem.total().value()) << trial;
  }
  // The sweep must exercise all three outcome classes.
  EXPECT_GT(feasible_seen, 50);
  EXPECT_GT(invalid_seen, 20);
  EXPECT_GT(oom_seen, 5);
}

TEST(Fuzz, SweepPlansOverRandomGridsLintClean) {
  // Every fuzzed hardware grid must pass the sweep-plan lint: the per-point
  // system lint plus the warm-chain analysis must accept every grid
  // hardware_grid can produce.
  Lcg rng(0xFACADE);
  for (int trial = 0; trial < 20; ++trial) {
    const auto gen = rng.pick({hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                               hw::GpuGeneration::B200});
    const std::int64_t n = rng.pick({64L, 256L, 1024L});
    const std::vector<std::int64_t> nvs = {rng.pick({4L, 8L}),
                                           rng.pick({16L, 64L})};
    const std::vector<double> oversub = {1.0, rng.pick({2.0, 4.0})};
    const auto points =
        search::hardware_grid({gen}, nvs, oversub, n, /*leaf_size=*/64);
    ASSERT_FALSE(points.empty()) << trial;
    const analysis::LintReport lint = search::lint_sweep_plan(points, search::SweepOptions{});
    EXPECT_EQ(lint.errors(), 0u) << trial << "\n" << lint.summary();
  }
}

TEST(Fuzz, SearchNeverReturnsWorseThanSampledConfigs) {
  // For a handful of random spaces, find_optimal must dominate every
  // directly-sampled valid configuration.
  Lcg rng(0xBEEF);
  for (int round = 0; round < 5; ++round) {
    const auto mdl = model::gpt3_175b();
    const std::int64_t n = rng.pick({64L, 128L});
    const hw::SystemConfig sys =
        hw::make_system(hw::GpuGeneration::B200, 8, n);
    search::SearchOptions opts;
    opts.strategy = parallel::TpStrategy::TP1D;
    opts.global_batch = 256;
    const auto best = search::find_optimal(mdl, sys, opts).best;
    ASSERT_TRUE(best.feasible);
    for (int s = 0; s < 20; ++s) {
      parallel::ParallelConfig cfg;
      cfg.strategy = parallel::TpStrategy::TP1D;
      cfg.n1 = rng.pick({1L, 2L, 4L, 8L});
      cfg.np = rng.pick({1L, 2L, 4L, 8L});
      if (n % (cfg.n1 * cfg.np)) continue;
      cfg.nd = n / (cfg.n1 * cfg.np);
      if (256 % cfg.nd) continue;
      cfg.microbatches = rng.pick({1L, 4L, 16L});
      if ((256 / cfg.nd) % cfg.microbatches) continue;
      const auto r = search::best_placement(mdl, sys, cfg, 256);
      if (r.feasible) {
        EXPECT_LE(best.iteration(), r.iteration() * (1 + 1e-12))
            << cfg.describe();
      }
    }
  }
}

}  // namespace
}  // namespace tfpe
