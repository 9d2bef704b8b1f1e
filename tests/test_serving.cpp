// Serving evaluator: KV-cache accounting, continuous-batching estimates,
// the decode HBM floor, the serve-plan Pareto front, and the TFPE-SERVE
// lint rules. Trend assertions follow the TensorRT-LLM throughput-table
// shapes: tok/s/GPU grows with resident batch and shrinks as tensor
// parallelism spreads one replica over more GPUs.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/inference_estimate.hpp"
#include "core/workload.hpp"
#include "io/config_lint.hpp"
#include "memory/memory_model.hpp"
#include "ops/op_factory.hpp"
#include "search/serve_plan.hpp"

namespace tfpe {
namespace {

using analysis::LintReport;
using analysis::RuleId;
using analysis::Severity;

/// The dense ~7B model of tests/data/serving_smoke.tfpe: every tp in
/// {1,2,4,8} divides heads/kv_heads/embed/seq, every pp in {1,2} divides
/// depth, and one replica fits a single H200 NVS domain.
model::TransformerConfig dense7b() {
  model::TransformerConfig m;
  m.name = "dense-7b";
  m.seq_len = 2048;
  m.embed = 4096;
  m.heads = 32;
  m.depth = 32;
  m.hidden = 16384;
  m.kv_heads = 8;
  m.vocab = 128256;
  return m;
}

hw::SystemConfig h200x8() {
  return hw::make_system(hw::GpuGeneration::H200, 8, 8);
}

core::Workload serve_load() { return core::Workload::decode(2048, 256); }

TEST(Serving, KvCacheBytesFormula) {
  const auto m = dense7b();
  // 2 (K and V) x 2 B/element x kv_heads/tp x head_dim x tokens x layers.
  const double expect = 2.0 * ops::kBytesPerElement * (8.0 / 2.0) * 128.0 *
                        2304.0 * 16.0;
  EXPECT_DOUBLE_EQ(
      memory::kv_cache_bytes(m, /*layers=*/16, /*tokens=*/2304.0, /*tp=*/2)
          .value(),
      expect);
  // GQA replication floor: tp beyond kv_heads still holds one head's cache.
  EXPECT_DOUBLE_EQ(
      memory::kv_cache_bytes(m, 32, 2304.0, 8).value(),
      2.0 * ops::kBytesPerElement * 1.0 * 128.0 * 2304.0 * 32.0);
}

TEST(Serving, TokensPerGpuMonotoneInBatch) {
  const auto m = dense7b();
  const auto sys = h200x8();
  double prev = 0.0;
  for (const std::int64_t batch : {1, 2, 4, 8, 16, 32, 64, 128}) {
    core::ServingConfig sc;
    sc.tp = 2;
    sc.batch = batch;
    const auto est = core::estimate_serving(m, sys, serve_load(), sc);
    ASSERT_TRUE(est.feasible) << est.reason << " at batch " << batch;
    EXPECT_GE(est.tokens_per_sec_per_gpu, prev) << "batch " << batch;
    prev = est.tokens_per_sec_per_gpu;
  }
}

TEST(Serving, TensorParallelismCostsPerGpuThroughput) {
  // At a fixed resident batch, spreading the replica over more GPUs buys
  // latency but never per-GPU throughput — the TensorRT-LLM table shape.
  const auto m = dense7b();
  const auto sys = h200x8();
  double prev = 0.0;
  for (const std::int64_t tp : {8, 4, 2, 1}) {
    core::ServingConfig sc;
    sc.tp = tp;
    sc.batch = 32;
    const auto est = core::estimate_serving(m, sys, serve_load(), sc);
    ASSERT_TRUE(est.feasible) << est.reason << " at tp " << tp;
    EXPECT_GT(est.tokens_per_sec_per_gpu, prev) << "tp " << tp;
    prev = est.tokens_per_sec_per_gpu;
  }
}

TEST(Serving, TpotRespectsTheDecodeHbmFloor) {
  const auto m = dense7b();
  const auto sys = h200x8();
  for (const std::int64_t tp : {1, 2, 4, 8}) {
    for (const std::int64_t pp : {1, 2}) {
      for (const std::int64_t batch : {1, 8, 32, 128}) {
        core::ServingConfig sc;
        sc.tp = tp;
        sc.pp = pp;
        sc.batch = batch;
        const auto est = core::estimate_serving(m, sys, serve_load(), sc);
        if (!est.feasible) continue;
        EXPECT_GE(est.tpot, est.decode_floor)
            << "tp" << tp << " pp" << pp << " batch " << batch;
        EXPECT_GT(est.decode_floor, 0.0);
      }
    }
  }
}

TEST(Serving, EveryFeasiblePointIsKvResident) {
  const auto m = dense7b();
  const auto sys = h200x8();
  const double hbm = sys.gpu.hbm_capacity.value();
  for (const std::int64_t tp : {1, 2, 4, 8}) {
    for (const std::int64_t batch : {1, 32, 4096}) {
      core::ServingConfig sc;
      sc.tp = tp;
      sc.batch = batch;
      const auto est = core::estimate_serving(m, sys, serve_load(), sc);
      if (!est.feasible) continue;
      EXPECT_LE(est.mem.total().value(), hbm);
      EXPECT_LE(est.mem.kv_cache.value(), sc.kv_cap_fraction * hbm);
      EXPECT_GE(est.admitted_batch, 1);
      EXPECT_LE(est.admitted_batch, batch);
      EXPECT_DOUBLE_EQ(est.mem.kv_cache.value(),
                       est.kv_bytes_per_request.value() *
                           static_cast<double>(est.admitted_batch));
    }
  }
}

TEST(Serving, OversizedBatchIsClippedNotRejected) {
  const auto m = dense7b();
  const auto sys = h200x8();
  core::ServingConfig sc;
  sc.tp = 1;
  sc.batch = 1000000;
  const auto est = core::estimate_serving(m, sys, serve_load(), sc);
  ASSERT_TRUE(est.feasible) << est.reason;
  EXPECT_LT(est.admitted_batch, sc.batch);
  EXPECT_GE(est.admitted_batch, 1);
}

TEST(Serving, InvalidShapesCarryReasons) {
  const auto sys = h200x8();
  const auto w = serve_load();
  auto moe = dense7b();
  moe.moe_experts = 8;
  EXPECT_TRUE(core::serve_invalid_reason(moe, sys, w, {}).has_value());
  auto gqa = dense7b();
  gqa.kv_heads = 4;  // tp = 8 cannot divide 4 K/V heads
  core::ServingConfig wide;
  wide.tp = 8;
  EXPECT_TRUE(core::serve_invalid_reason(gqa, sys, w, wide).has_value());
  core::ServingConfig toobig;
  toobig.tp = 8;
  toobig.pp = 2;  // replica of 16 GPUs on an 8-GPU system
  EXPECT_TRUE(
      core::serve_invalid_reason(dense7b(), sys, w, toobig).has_value());
  core::ServingConfig ok;
  ok.tp = 2;
  EXPECT_FALSE(core::serve_invalid_reason(dense7b(), sys, w, ok).has_value());
}

TEST(Serving, CachedSignatureOverloadMatchesSelfCompile) {
  // The serve-plan search hands estimate_serving a SignatureCache'd prefill
  // signature; the result must be identical to the self-compiling overload.
  const auto m = dense7b();
  const auto sys = h200x8();
  const auto w = serve_load();
  core::ServingConfig sc;
  sc.tp = 2;
  sc.batch = 32;
  auto prompt = m;
  prompt.seq_len = w.prompt_len;
  const auto cfg = core::serving_parallel_config(sys, sc);
  const auto sig =
      core::compile_signature(prompt, cfg, 1, core::EvalOptions{});
  const auto direct = core::estimate_serving(m, sys, w, sc);
  const auto cached = core::estimate_serving(m, sys, w, sc, sig, {});
  EXPECT_EQ(direct.ttft, cached.ttft);
  EXPECT_EQ(direct.tpot, cached.tpot);
  EXPECT_EQ(direct.tokens_per_sec_per_gpu, cached.tokens_per_sec_per_gpu);
  EXPECT_EQ(direct.admitted_batch, cached.admitted_batch);
  EXPECT_EQ(direct.mem.total().value(), cached.mem.total().value());
}

TEST(Serving, ServePlanFrontIsAParetoFront) {
  const auto m = dense7b();
  const auto sys = h200x8();
  search::ServePlanOptions opts;
  opts.spec.tp = {1, 2, 4, 8};
  opts.spec.pp = {1, 2};
  opts.spec.batch = {1, 8, 32, 128};
  const auto run = search::run_serve_plan(m, sys, opts);
  ASSERT_FALSE(run.front.empty());
  EXPECT_GT(run.stats.feasible, 0u);
  EXPECT_GT(run.stats.signature_reuses, 0u);  // batch axis shares lowerings
  for (const std::size_t i : run.front) {
    const auto& p = run.points[i];
    ASSERT_TRUE(p.feasible);
    for (const auto& q : run.points) {
      if (!q.feasible) continue;
      const bool dominates =
          q.request_latency <= p.request_latency &&
          q.tokens_per_sec_per_gpu >= p.tokens_per_sec_per_gpu &&
          (q.request_latency < p.request_latency ||
           q.tokens_per_sec_per_gpu > p.tokens_per_sec_per_gpu);
      EXPECT_FALSE(dominates)
          << "tp" << q.cfg.tp << " pp" << q.cfg.pp << " batch " << q.cfg.batch
          << " dominates front point tp" << p.cfg.tp << " pp" << p.cfg.pp
          << " batch " << p.cfg.batch;
    }
  }
  // Front is sorted: latency ascending, efficiency strictly ascending.
  for (std::size_t k = 1; k < run.front.size(); ++k) {
    const auto& a = run.points[run.front[k - 1]];
    const auto& b = run.points[run.front[k]];
    EXPECT_LE(a.request_latency, b.request_latency);
    EXPECT_LT(a.tokens_per_sec_per_gpu, b.tokens_per_sec_per_gpu);
  }
}

TEST(Serving, MaxBatchCapsTheGrid) {
  const auto m = dense7b();
  const auto sys = h200x8();
  search::ServePlanOptions opts;
  opts.spec.tp = {2};
  opts.spec.pp = {1};
  opts.spec.batch = {1, 8, 32, 128};
  opts.spec.max_batch = 16;
  const auto run = search::run_serve_plan(m, sys, opts);
  EXPECT_EQ(run.stats.evaluated, 2u);  // 32 and 128 are skipped
  for (const auto& p : run.points) EXPECT_LE(p.cfg.batch, 16);
}

// --- TFPE-SERVE lint rules, one mutation per rule --------------------------

constexpr const char* kCleanServing =
    "[model]\n"
    "name = dense-7b\n"
    "seq_len = 2048\n"
    "embed = 4096\n"
    "heads = 32\n"
    "depth = 32\n"
    "hidden = 16384\n"
    "kv_heads = 8\n"
    "vocab = 128256\n"
    "[system]\n"
    "gpu = h200\n"
    "nvs_domain = 8\n"
    "n_gpus = 8\n"
    "[serving]\n"
    "prompt_len = 2048\n"
    "output_len = 256\n"
    "tp = 1, 2, 4, 8\n"
    "pp = 1, 2\n"
    "batch = 1, 8, 32, 128\n"
    "kv_cap_fraction = 0.9\n";

LintReport lint(const std::string& text) {
  std::istringstream in(text);
  return io::lint_config_text(in, "test.tfpe");
}

const analysis::Diagnostic& first(const LintReport& report, RuleId id) {
  for (const auto& d : report.diagnostics) {
    if (d.id == id) return d;
  }
  ADD_FAILURE() << "expected rule " << analysis::rule_info(id).code << " in:\n"
                << report.summary();
  static const analysis::Diagnostic none{};
  return none;
}

/// Replace the line starting with `key` in kCleanServing by `mutation`.
std::string mutate_serving(const std::string& key,
                           const std::string& mutation) {
  std::string text(kCleanServing);
  const auto at = text.find("\n" + key);
  EXPECT_NE(at, std::string::npos) << key;
  const auto end = text.find('\n', at + 1);
  return text.substr(0, at + 1) + mutation + text.substr(end);
}

TEST(ServingLint, CleanServingFileIsClean) {
  const LintReport report = lint(kCleanServing);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ServingLint, ValueMutationsFire) {
  for (const char* mutation :
       {"prompt_len = 0", "output_len = -5", "tp = 1, zero",
        "batch = 0, 8", "kv_cap_fraction = 1.5", "kv_cap_fraction = 0"}) {
    const std::string key =
        std::string(mutation).substr(0, std::string(mutation).find(' '));
    const LintReport report = lint(mutate_serving(key, mutation));
    const auto& d = first(report, RuleId::kConfigValue);
    EXPECT_EQ(d.severity, Severity::kError) << mutation;
    EXPECT_GT(d.line, 0) << mutation;
  }
}

TEST(ServingLint, KvBudgetExhaustionFires) {
  // A starved KV cap: the budget fraction is smaller than the weights on
  // every (tp, pp) shape of the grid, so no shape can hold even one
  // request's cache. TFPE-SERVE-001, error.
  const LintReport report =
      lint(mutate_serving("kv_cap_fraction", "kv_cap_fraction = 0.001"));
  const auto& d = first(report, RuleId::kServeKvBudget);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.code(), "TFPE-SERVE-001");
  EXPECT_EQ(d.file, "test.tfpe");
}

TEST(ServingLint, BatchBeyondResidencyWarns) {
  // 100k requested residents: admissible on no shape, so the scheduler
  // would clip. TFPE-SERVE-002, warning — the grid still runs.
  const LintReport report =
      lint(mutate_serving("batch", "batch = 1, 100000"));
  const auto& d = first(report, RuleId::kServeBatchCap);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.code(), "TFPE-SERVE-002");
  EXPECT_EQ(report.errors(), 0u) << report.summary();
}

TEST(ServingLint, UnknownServingKeyFires) {
  const LintReport report =
      lint(mutate_serving("kv_cap_fraction", "kv_cap = 0.9"));
  const auto& d = first(report, RuleId::kConfigUnknownKey);
  EXPECT_EQ(d.severity, Severity::kError);
}

}  // namespace
}  // namespace tfpe
