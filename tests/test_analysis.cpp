// Tests for the op-graph invariant analyzer (src/analysis): the clean
// preset x strategy matrix, and mutation tests that corrupt one op and
// assert the specific conservation rule fires.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/invariants.hpp"
#include "parallel/layer_builder.hpp"

namespace tfpe::analysis {
namespace {

using parallel::ParallelConfig;
using parallel::TpStrategy;

ParallelConfig cfg_of(TpStrategy s, std::int64_t n1, std::int64_t n2,
                      std::int64_t nb = 1, bool ring = false) {
  ParallelConfig c;
  c.strategy = s;
  c.n1 = n1;
  c.n2 = n2;
  c.nb = nb;
  c.ring_attention = ring;
  return c;
}

std::size_t count_rule(const LintReport& r, const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(r.diagnostics.begin(), r.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

/// True when every error-severity diagnostic carries the given rule.
bool only_rule_errors(const LintReport& r, const std::string& rule) {
  return std::all_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const Diagnostic& d) {
                       return d.severity != Severity::kError || d.rule == rule;
                     });
}

ops::Op& op_named(parallel::LayerCost& layer, const std::string& name) {
  for (auto& op : layer.ops) {
    if (op.name == name) return op;
  }
  ADD_FAILURE() << "no op named " << name;
  return layer.ops.front();
}

// --- Clean matrix -----------------------------------------------------------

struct MatrixCase {
  model::TransformerConfig mdl;
  ParallelConfig cfg;
  std::string label;
};

std::vector<MatrixCase> clean_matrix() {
  std::vector<MatrixCase> cases;
  for (const auto& mdl : {model::gpt3_1t(), model::vit_64k()}) {
    cases.push_back({mdl, cfg_of(TpStrategy::TP1D, 8, 1), "1d"});
    cases.push_back({mdl, cfg_of(TpStrategy::TP2D, 8, 2), "2d"});
    cases.push_back({mdl, cfg_of(TpStrategy::Summa2D, 4, 4, 4), "summa"});
    cases.push_back({mdl, cfg_of(TpStrategy::TP2D, 8, 2, 1, true), "2d+ring"});
  }
  cases.push_back({model::gpt_moe_1t(), cfg_of(TpStrategy::TP1D, 8, 1), "1d"});
  cases.push_back({model::gpt_moe_1t(), cfg_of(TpStrategy::TP2D, 8, 2), "2d"});
  return cases;
}

TEST(Analyzer, PresetStrategyMatrixLintsClean) {
  for (const auto& c : clean_matrix()) {
    const LintReport r = lint_config(c.mdl, c.cfg, 2);
    EXPECT_EQ(r.errors(), 0u)
        << c.mdl.name << " x " << c.label << "\n" << r.summary();
  }
}

TEST(Analyzer, CleanReportHasEmptySummaryCounts) {
  const LintReport r =
      lint_config(model::gpt3_1t(), cfg_of(TpStrategy::TP1D, 8, 1), 2);
  EXPECT_TRUE(r.clean()) << r.summary();
  EXPECT_EQ(r.warnings(), 0u);
  EXPECT_NE(r.summary().find("0 error(s)"), std::string::npos);
}

TEST(Analyzer, AssertHookAcceptsValidLayer) {
  const auto mdl = model::vit_64k();
  const auto cfg = cfg_of(TpStrategy::TP2D, 8, 2);
  const auto layer = parallel::build_layer(mdl, cfg, 2);
  EXPECT_NO_THROW(assert_layer_invariants(mdl, cfg, 2, layer));
}

// --- Mutation tests: corrupt one op, the matching rule (and only an
// error of that rule) fires. -------------------------------------------------

TEST(AnalyzerMutation, DoubledCollectiveVolumeFiresCollectiveVolume) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  // Doubling fwd AND bwd keeps the conjugacy rule satisfied, so only the
  // re-derived Table I volume can catch it.
  auto& op = op_named(layer, "out_proj");
  ASSERT_FALSE(op.fwd_comm.empty());
  op.fwd_comm[0].bytes = op.fwd_comm[0].bytes * 2.0;
  op.bwd_comm[0].bytes = op.bwd_comm[0].bytes * 2.0;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_EQ(count_rule(r, "collective-volume"), 1u) << r.summary();
  EXPECT_TRUE(only_rule_errors(r, "collective-volume")) << r.summary();
}

TEST(AnalyzerMutation, DroppedActivationTermFiresActivationRules) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "qkv_proj");
  ASSERT_GT(op.stored_bytes.value(), 0.0);
  op.stored_bytes = Bytes(0.0);
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_EQ(count_rule(r, "activation-term"), 1u) << r.summary();
  // The block total no longer partitions either — the aggregate rule is the
  // only legitimate companion diagnostic.
  EXPECT_EQ(count_rule(r, "activation-sum"), 1u) << r.summary();
  EXPECT_EQ(r.errors(), 2u) << r.summary();
  for (const auto& d : r.diagnostics) {
    if (d.rule == "activation-term") EXPECT_EQ(d.op, "qkv_proj");
  }
}

TEST(AnalyzerMutation, MismatchedShapesFireShapeChain) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "gelu");
  ASSERT_GT(op.in_elems, 0.0);
  op.in_elems *= 3.0;
  op.out_elems *= 3.0;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  // Both chain links around gelu break: fc1 -> gelu and gelu -> fc2.
  EXPECT_EQ(count_rule(r, "shape-chain"), 2u) << r.summary();
  EXPECT_TRUE(only_rule_errors(r, "shape-chain")) << r.summary();
}

TEST(AnalyzerMutation, DoubledFlopsFireFlopInvariance) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP2D, 8, 2);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "attention");
  // Doubling fwd AND bwd keeps their ratio inside the heuristic band; only
  // the conservation law against the serial baseline can catch it.
  op.fwd_flops = op.fwd_flops * 2.0;
  op.bwd_flops = op.bwd_flops * 2.0;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_EQ(count_rule(r, "flop-invariance"), 2u) << r.summary();  // fwd + bwd
  EXPECT_TRUE(only_rule_errors(r, "flop-invariance")) << r.summary();
}

TEST(AnalyzerMutation, ThinContractionShardsAreCleanDroppedFlopsFire) {
  // GPT3-1T's 2048-token sequence over n2 = 2048: one token per GPU, so a
  // wgrad GEMM contracts over a single token and its shards sum to half
  // the serial (2k-1) count. The rule expects exactly that (per-shard
  // (2k/s - 1) contraction terms), so the honest layers lint clean; a
  // builder that drops half a GEMM's backward still fires.
  const auto mdl = model::gpt3_1t();
  ASSERT_EQ(mdl.seq_len, 2048);
  for (const ParallelConfig& cfg : {cfg_of(TpStrategy::Summa2D, 1, 2048),
                                    cfg_of(TpStrategy::TP2D, 1, 2048)}) {
    auto layer = parallel::build_layer(mdl, cfg, 1);
    const LintReport clean = lint_layer(mdl, cfg, 1, layer);
    EXPECT_EQ(count_rule(clean, "flop-invariance"), 0u) << clean.summary();
    EXPECT_EQ(count_rule(clean, "fwd-bwd-flops"), 0u) << clean.summary();
    EXPECT_NO_THROW(assert_layer_invariants(mdl, cfg, 1, layer));

    auto& op = op_named(layer, "mlp_fc1");
    op.bwd_flops = op.bwd_flops * 0.5;
    const LintReport r = lint_layer(mdl, cfg, 1, layer);
    EXPECT_EQ(count_rule(r, "flop-invariance"), 1u) << r.summary();  // bwd
    EXPECT_TRUE(only_rule_errors(r, "flop-invariance")) << r.summary();
  }
}

TEST(AnalyzerMutation, ReorderedOpsFireOpSequence) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  ASSERT_GE(layer.ops.size(), 2u);
  std::swap(layer.ops[0].name, layer.ops[1].name);
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_GE(count_rule(r, "op-sequence"), 1u) << r.summary();
}

TEST(AnalyzerMutation, DroppedOpFiresOpSequenceOnly) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  layer.ops.pop_back();
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  // Per-op table checks are suppressed when the sequence cannot be aligned.
  EXPECT_EQ(count_rule(r, "op-sequence"), 1u) << r.summary();
  EXPECT_EQ(count_rule(r, "activation-term"), 0u) << r.summary();
  EXPECT_EQ(count_rule(r, "collective-volume"), 0u) << r.summary();
}

TEST(AnalyzerMutation, WrongConjugateFiresFwdBwdComm) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "ln1");
  ASSERT_FALSE(op.bwd_comm.empty());
  op.bwd_comm[0].collective = ops::Collective::AllReduce;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_EQ(count_rule(r, "fwd-bwd-comm"), 1u) << r.summary();
  EXPECT_TRUE(only_rule_errors(r, "fwd-bwd-comm")) << r.summary();
}

TEST(AnalyzerMutation, WrongPpBoundaryFiresPpBoundary) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  layer.pp_boundary_bytes = layer.pp_boundary_bytes * 0.5;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_EQ(count_rule(r, "pp-boundary"), 1u) << r.summary();
  EXPECT_TRUE(only_rule_errors(r, "pp-boundary")) << r.summary();
}

TEST(AnalyzerMutation, SkewedBwdFlopsWarnsOnly) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "mlp_fc1");
  op.bwd_flops = op.fwd_flops * 10.0;  // far outside the tensor-core band
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  EXPECT_GE(count_rule(r, "fwd-bwd-flops"), 1u) << r.summary();
  for (const auto& d : r.diagnostics) {
    if (d.rule == "fwd-bwd-flops") EXPECT_EQ(d.severity, Severity::kWarning);
  }
  // flop-invariance also legitimately fires: the mutated bwd total no
  // longer matches the serial baseline.
  EXPECT_EQ(count_rule(r, "flop-invariance"), 1u) << r.summary();
}

TEST(AnalyzerMutation, AssertHookThrowsOnCorruptedLayer) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  op_named(layer, "qkv_proj").stored_bytes = Bytes(0.0);
  EXPECT_THROW(assert_layer_invariants(mdl, cfg, 2, layer), std::logic_error);
}

TEST(AnalyzerMutation, DiagnosticCarriesExpectedAndActual) {
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  auto& op = op_named(layer, "out_proj");
  const double want = op.fwd_comm[0].bytes.value();
  op.fwd_comm[0].bytes = op.fwd_comm[0].bytes * 2.0;
  op.bwd_comm[0].bytes = op.bwd_comm[0].bytes * 2.0;
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  ASSERT_EQ(count_rule(r, "collective-volume"), 1u);
  for (const auto& d : r.diagnostics) {
    if (d.rule != "collective-volume") continue;
    EXPECT_DOUBLE_EQ(d.expected, want);
    EXPECT_DOUBLE_EQ(d.actual, 2.0 * want);
    EXPECT_EQ(d.op, "out_proj");
    EXPECT_NE(d.message.find("out_proj"), std::string::npos);
  }
}

TEST(AnalyzerMutation, DiagnosticsCarryStableRuleIds) {
  // Every diagnostic the op-graph linter emits is tied to a registered
  // rule: the short name matches the registry row and the stable code
  // resolves back to the same rule.
  const auto mdl = model::gpt3_1t();
  const auto cfg = cfg_of(TpStrategy::TP1D, 8, 1);
  auto layer = parallel::build_layer(mdl, cfg, 2);
  op_named(layer, "out_proj").fwd_comm[0].bytes =
      op_named(layer, "out_proj").fwd_comm[0].bytes * 2.0;
  op_named(layer, "qkv_proj").stored_bytes = Bytes(0.0);
  const LintReport r = lint_layer(mdl, cfg, 2, layer);
  ASSERT_FALSE(r.clean());
  for (const auto& d : r.diagnostics) {
    const RuleInfo& info = rule_info(d.id);
    EXPECT_EQ(d.rule, info.name);
    EXPECT_EQ(d.code(), info.code);
    EXPECT_EQ(find_rule(d.code()), d.id);
  }
  // Specific anchor: collective-volume is TFPE-OP-006, fwd-bwd-comm not.
  bool saw_volume = false;
  for (const auto& d : r.diagnostics) {
    if (d.id == RuleId::kCollectiveVolume) {
      saw_volume = true;
      EXPECT_EQ(d.code(), "TFPE-OP-006");
    }
  }
  EXPECT_TRUE(saw_volume) << r.summary();
}

}  // namespace
}  // namespace tfpe::analysis
