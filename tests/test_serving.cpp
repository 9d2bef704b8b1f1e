// Serving evaluator: KV-cache accounting, continuous-batching estimates,
// the decode HBM floor, the serve-plan Pareto front, and the TFPE-SERVE
// lint rules. Trend assertions follow the TensorRT-LLM throughput-table
// shapes: tok/s/GPU grows with resident batch and shrinks as tensor
// parallelism spreads one replica over more GPUs.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/inference_estimate.hpp"
#include "core/workload.hpp"
#include "io/config_lint.hpp"
#include "memory/memory_model.hpp"
#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_estimate(const core::InferenceEstimate& a,
                          const core::InferenceEstimate& b,
                          const std::string& label) {
  EXPECT_EQ(a.feasible, b.feasible) << label;
  EXPECT_EQ(a.reason, b.reason) << label;
  EXPECT_EQ(a.cfg.tp, b.cfg.tp) << label;
  EXPECT_EQ(a.cfg.pp, b.cfg.pp) << label;
  EXPECT_EQ(a.cfg.batch, b.cfg.batch) << label;
  EXPECT_TRUE(same_bits(a.cfg.kv_cap_fraction, b.cfg.kv_cap_fraction))
      << label;
  EXPECT_EQ(a.admitted_batch, b.admitted_batch) << label;
  const std::pair<double, double> fields[] = {
      {a.ttft, b.ttft},
      {a.tpot, b.tpot},
      {a.request_latency, b.request_latency},
      {a.tokens_per_sec, b.tokens_per_sec},
      {a.tokens_per_sec_per_gpu, b.tokens_per_sec_per_gpu},
      {a.prefill_fraction, b.prefill_fraction},
      {a.mem.weights.value(), b.mem.weights.value()},
      {a.mem.gradients.value(), b.mem.gradients.value()},
      {a.mem.optimizer.value(), b.mem.optimizer.value()},
      {a.mem.activations.value(), b.mem.activations.value()},
      {a.mem.kv_cache.value(), b.mem.kv_cache.value()},
      {a.kv_bytes_per_request.value(), b.kv_bytes_per_request.value()},
      {a.decode_floor, b.decode_floor}};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    EXPECT_TRUE(same_bits(fields[i].first, fields[i].second))
        << label << " field " << i << ": " << fields[i].first << " vs "
        << fields[i].second;
  }
}

TEST(Serving, CachedSignatureOverloadMatchesSelfCompile) {
  // run_serve_plan builds each (tp, pp) shape half once on a
  // SignatureCache'd prefill signature and runs only the point half per
  // batch; every field of every grid point must be bitwise the
  // self-compiling estimate_serving's. The grid (a short prompt, a long
  // output and the whole HBM as the KV cap) holds every outcome: shapes the
  // divisibility contract rejects, KV-exhausted shapes, over-HBM points,
  // feasible points at pp = 1..3, and a zero batch.
  const auto m = model::llama3_405b();
  const auto sys = hw::make_system(hw::GpuGeneration::H200, 8, 16);
  search::ServePlanOptions opts;
  opts.spec.prompt_len = 64;
  opts.spec.output_len = 2048;
  opts.spec.kv_cap_fraction = 1.0;
  opts.spec.tp = {1, 2, 4, 8, 16};
  opts.spec.pp = {1, 2, 3, 4};
  opts.spec.batch = {0, 1, 7, 64, 1024, 4096};
  std::set<std::string> outcomes;
  for (const bool variant : {false, true}) {
    opts.eval = core::EvalOptions{};
    if (variant) {
      opts.eval.tp_overlap = 0.25;
      opts.eval.activation_recompute = true;
    }
    const auto run = search::run_serve_plan(m, sys, opts);
    ASSERT_EQ(run.points.size(), 5u * 4u * 6u);
    for (const auto& p : run.points) {
      const std::string label = "tp" + std::to_string(p.cfg.tp) + " pp" +
                                std::to_string(p.cfg.pp) + " batch " +
                                std::to_string(p.cfg.batch) +
                                (variant ? " overlap+recompute" : "");
      expect_same_estimate(
          p,
          core::estimate_serving(m, sys, opts.spec.workload(), p.cfg,
                                 opts.eval),
          label);
      outcomes.insert(p.feasible ? "feasible pp" + std::to_string(p.cfg.pp)
                                 : p.reason);
    }
  }
  for (const char* want :
       {"feasible pp1", "feasible pp2", "feasible pp3",
        "np must divide model depth", "n1 must divide kv heads",
        "configuration exceeds available GPUs",
        "KV budget admits no resident request", "exceeds HBM capacity",
        "batch must be >= 1"}) {
    EXPECT_EQ(outcomes.count(want), 1u) << "grid lacks outcome: " << want;
  }
}

TEST(Serving, StageTimesMatchTheOracle) {
  // Both serving phases time a stage through the engine's SoA bind and
  // placement kernel (ServingShape::stage_time). Prefill must be the
  // oracle's t_fwd_micro on the prompt model; decode the oracle's forward
  // core::op_time over build_decode_layer's ops (tp_overlap applied per op
  // as evaluate_with_layer does) x layers per stage, plus the decode head.
  // Offload stays 0: adapt_to_phase drops the offload term.
  auto headless = dense7b();
  headless.vocab = 0;
  headless.name = "dense-7b-novocab";
  const std::vector<model::TransformerConfig> models = {
      dense7b(), headless, model::llama3_405b()};
  std::vector<core::EvalOptions> variants(4);
  variants[1].tp_overlap = 0.3;
  variants[2].activation_recompute = true;
  variants[3].tp_overlap = 0.6;
  variants[3].activation_recompute = true;
  const core::Workload w = core::Workload::decode(512, 128);
  std::size_t compared = 0;
  for (const auto& mdl : models) {
    auto prompt = mdl;
    prompt.seq_len = w.prompt_len;
    for (const auto gen : {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
                           hw::GpuGeneration::B200}) {
      // nvs 4 puts the tp = 8 group across fast domains.
      for (const std::int64_t nvs : {4, 8}) {
        const auto sys = hw::make_system(gen, nvs, 64);
        const hw::Topology fabric = sys.resolved_fabric();
        for (const std::int64_t tp : {1, 2, 4, 8}) {
          for (const std::int64_t pp : {1, 2}) {
            core::ServingConfig sc;
            sc.tp = tp;
            sc.pp = pp;
            if (core::serve_invalid_reason(mdl, sys, w, sc)) continue;
            const auto cfg = core::serving_parallel_config(sys, sc);
            const double Ld = static_cast<double>(mdl.depth / pp);
            for (const auto& eval : variants) {
              const std::string label =
                  mdl.name + " " + hw::to_string(gen) + " nvs" +
                  std::to_string(nvs) + " tp" + std::to_string(tp) + " pp" +
                  std::to_string(pp) + " overlap " +
                  std::to_string(eval.tp_overlap) +
                  (eval.activation_recompute ? " recompute" : "");
              core::ServingShape shape(
                  mdl, sys, w, sc,
                  core::compile_signature(prompt, cfg, 1, eval), eval);
              const core::EvalResult ref =
                  core::evaluate(prompt, sys, cfg, 1, eval);
              EXPECT_TRUE(same_bits(shape.prefill_stage.value(),
                                    ref.t_fwd_micro))
                  << label << ": prefill " << shape.prefill_stage.value()
                  << " vs " << ref.t_fwd_micro;

              for (const double tokens : {1.0, 7.5, 64.0}) {
                const double kv_len = w.decode_kv_len();
                const Seconds engine = shape.stage_time(
                    core::compile_decode_signature(mdl, cfg, tokens, kv_len));
                core::OpTime fwd{};
                for (const auto& op :
                     parallel::build_decode_layer(mdl, tp, tokens, kv_len)
                         .ops) {
                  core::OpTime f = core::op_time(op, false, sys, fabric, cfg);
                  if (op.summa_panels <= 1 && eval.tp_overlap > 0) {
                    f.comm *= 1.0 - eval.tp_overlap;
                  }
                  fwd.compute += f.compute;
                  fwd.memory += f.memory;
                  fwd.comm += f.comm;
                }
                Seconds oracle = (fwd.compute + fwd.memory + fwd.comm) * Ld;
                if (mdl.vocab > 0) {
                  const double vshard = static_cast<double>(mdl.vocab) /
                                        static_cast<double>(tp);
                  const ops::Op logits = ops::forward_only(
                      ops::matmul("lm_head", tokens, vshard,
                                  static_cast<double>(mdl.embed)));
                  const ops::Op soft = ops::forward_only(
                      ops::vector_op("softmax", tokens * vshard, 5.0, 0.0));
                  core::OpTime head{};
                  for (const ops::Op* op : {&logits, &soft}) {
                    const core::OpTime f =
                        core::op_time(*op, false, sys, fabric, cfg);
                    head.compute += f.compute;
                    head.memory += f.memory;
                  }
                  oracle += head.compute + head.memory;
                }
                EXPECT_TRUE(same_bits(engine.value(), oracle.value()))
                    << label << " tokens " << tokens << ": decode "
                    << engine.value() << " vs " << oracle.value();
                ++compared;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 500u);
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
