// Diagnostics engine: rule registry integrity, suppression switches and the
// machine-readable renderers (JSON / SARIF 2.1) behind `tfpe lint`.
#include "analysis/diagnostics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

namespace tfpe {
namespace {

using analysis::Diagnostic;
using analysis::DiagnosticSink;
using analysis::LintReport;
using analysis::RuleConfig;
using analysis::RuleId;
using analysis::Severity;

// ---------------------------------------------------------------- registry

TEST(RuleRegistry, EveryEnumeratorHasARowInOrder) {
  const auto& rules = analysis::all_rules();
  ASSERT_EQ(rules.size(), analysis::kRuleCount);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(rules[i].id), i)
        << "registry row " << i << " out of enumerator order";
    EXPECT_FALSE(rules[i].code.empty());
    EXPECT_FALSE(rules[i].name.empty());
    EXPECT_FALSE(rules[i].summary.empty());
  }
}

TEST(RuleRegistry, CodesAreUniqueAndWellFormed) {
  std::set<std::string> codes, names;
  for (const auto& r : analysis::all_rules()) {
    EXPECT_TRUE(codes.insert(std::string(r.code)).second)
        << "duplicate code " << r.code;
    EXPECT_TRUE(names.insert(std::string(r.name)).second)
        << "duplicate name " << r.name;
    // Shape: TFPE-<FAMILY>-<3 digits>.
    const std::string code(r.code);
    ASSERT_GE(code.size(), std::string("TFPE-X-000").size()) << code;
    EXPECT_EQ(code.substr(0, 5), "TFPE-") << code;
    const auto dash = code.rfind('-');
    ASSERT_NE(dash, std::string::npos);
    const std::string digits = code.substr(dash + 1);
    EXPECT_EQ(digits.size(), 3u) << code;
    for (char c : digits) EXPECT_TRUE(std::isdigit(c)) << code;
    const std::string family = code.substr(5, dash - 5);
    EXPECT_FALSE(family.empty()) << code;
    for (char c : family) EXPECT_TRUE(std::isupper(c)) << code;
  }
}

TEST(RuleRegistry, FindRuleRoundTripsCodesAndNames) {
  for (const auto& r : analysis::all_rules()) {
    const auto by_code = analysis::find_rule(r.code);
    ASSERT_TRUE(by_code.has_value()) << r.code;
    EXPECT_EQ(*by_code, r.id);
    const auto by_name = analysis::find_rule(r.name);
    ASSERT_TRUE(by_name.has_value()) << r.name;
    EXPECT_EQ(*by_name, r.id);
  }
  EXPECT_FALSE(analysis::find_rule("TFPE-XX-999").has_value());
  EXPECT_FALSE(analysis::find_rule("no-such-rule").has_value());
}

TEST(RuleRegistry, KnownAnchorCodesAreStable) {
  // Pin a few externally referenced codes so renumbering is caught.
  EXPECT_EQ(analysis::rule_info(RuleId::kOpSequence).code, "TFPE-OP-001");
  EXPECT_EQ(analysis::rule_info(RuleId::kSignatureFlopTotal).code,
            "TFPE-SIG-003");
  EXPECT_EQ(analysis::rule_info(RuleId::kPlacementLeafFanIn).code,
            "TFPE-PLACE-002");
  EXPECT_EQ(analysis::rule_info(RuleId::kBatchedScratchShape).code,
            "TFPE-BATCH-006");
  EXPECT_EQ(analysis::rule_info(RuleId::kConfigMissingKey).code,
            "TFPE-CFG-006");
  EXPECT_EQ(analysis::rule_info(RuleId::kCodesignEmptyFamily).code,
            "TFPE-CODESIGN-003");
  // Retired codes are never reused.
  EXPECT_EQ(analysis::rule_info(RuleId::kSweepWarmChain).code,
            "TFPE-SWEEP-003");
  EXPECT_FALSE(analysis::find_rule("TFPE-SWEEP-001").has_value());
  EXPECT_FALSE(analysis::find_rule("sweep-options").has_value());
  EXPECT_FALSE(analysis::find_rule("TFPE-SWEEP-002").has_value());
  EXPECT_FALSE(analysis::find_rule("sweep-cache-key").has_value());
}

// -------------------------------------------------------------------- sink

TEST(DiagnosticSink, FillsNameAndDefaultSeverityFromRegistry) {
  DiagnosticSink sink;
  sink.emit(RuleId::kFlopInvariance, "mlp_up", 1.0, 2.0, "off by 2x");
  sink.emit(RuleId::kSweepWarmChain, "point[3]", 0, 0, "roofline drifts");
  const LintReport report = sink.take();
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].rule, "flop-invariance");
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_EQ(report.diagnostics[0].code(), "TFPE-OP-002");
  EXPECT_EQ(report.diagnostics[1].severity, Severity::kWarning);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
}

TEST(DiagnosticSink, SuppressionDropsAtEmissionAndMerge) {
  RuleConfig rules;
  ASSERT_TRUE(rules.suppress("TFPE-OP-002"));
  ASSERT_TRUE(rules.suppress("topology-monotone-bw"));
  EXPECT_FALSE(rules.suppress("TFPE-NOPE-001"));
  DiagnosticSink sink(rules);
  sink.emit(RuleId::kFlopInvariance, "qkv", 1, 2, "suppressed");
  sink.emit(RuleId::kOpSequence, "qkv", 1, 2, "kept");

  DiagnosticSink other;  // default config: everything enabled
  other.emit(RuleId::kTopologyMonotoneBw, "level[1]", 0, 0, "suppressed");
  other.emit(RuleId::kTopologyDepth, "fabric", 1, 9, "kept");
  sink.merge(other.take());

  const LintReport report = sink.take();
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].id, RuleId::kOpSequence);
  EXPECT_EQ(report.diagnostics[1].id, RuleId::kTopologyDepth);
}

TEST(DiagnosticSink, ExplicitSeverityOverridesDefault) {
  DiagnosticSink sink;
  sink.emit(RuleId::kTopologyFanIn, "level[0]", 8, 16, "oversized",
            Severity::kWarning);
  const LintReport report = sink.take();
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_EQ(report.warnings(), 1u);
}

// --------------------------------------------------------------- renderers

LintReport sample_report() {
  DiagnosticSink sink;
  sink.emit(RuleId::kConfigUnknownKey, "[system] bogus", 0, 0,
            "unknown key \"bogus\"", std::nullopt, "demo.tfpe", 7);
  sink.emit(RuleId::kSignatureFlopTotal, "<layer>", 1.5e12, 1.6e12,
            "fwd FLOP total drifted");
  sink.emit(RuleId::kSweepWarmChain, "point[2]", 0, 0,
            "chain crosses rooflines");
  return sink.take();
}

TEST(Renderers, TextCarriesCodeAnchorAndCounts) {
  const std::string text = analysis::render_text(sample_report());
  EXPECT_NE(text.find("TFPE-CFG-003"), std::string::npos);
  EXPECT_NE(text.find("demo.tfpe:7"), std::string::npos);
  EXPECT_NE(text.find("2 error(s), 1 warning(s)"), std::string::npos);
}

TEST(Renderers, JsonIsBalancedAndCarriesEveryDiagnostic) {
  const LintReport report = sample_report();
  const std::string json = analysis::render_json(report);
  // Structural schema check: balanced braces/brackets outside strings and
  // the fields the CI consumers key on.
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_NE(json.find("\"tool\": \"tfpe-lint\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  for (const auto& d : report.diagnostics) {
    EXPECT_NE(json.find(std::string(d.code())), std::string::npos) << d.rule;
  }
  EXPECT_NE(json.find("\"line\": 7"), std::string::npos);
}

TEST(Renderers, JsonEscapesQuotesAndControlCharacters) {
  DiagnosticSink sink;
  sink.emit(RuleId::kConfigValue, "[plan] \"weird\"\tkey", 0, 0,
            "line1\nline2");
  const std::string json = analysis::render_json(sink.take());
  EXPECT_NE(json.find("\\\"weird\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  // No raw control characters may survive inside the output.
  for (char c : json) EXPECT_NE(c, '\t');
}

TEST(Renderers, SarifListsFullRegistryAndAnchorsResults) {
  const LintReport report = sample_report();
  const std::string sarif = analysis::render_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // Every registered rule appears in tool.driver.rules even when it did not
  // fire — the SARIF ruleIndex contract.
  for (const auto& r : analysis::all_rules()) {
    EXPECT_NE(sarif.find(std::string(r.code)), std::string::npos) << r.code;
  }
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("demo.tfpe"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
}

TEST(Renderers, EmptyReportRendersCleanInAllFormats) {
  const LintReport empty;
  EXPECT_NE(analysis::render_text(empty).find("0 error(s), 0 warning(s)"),
            std::string::npos);
  EXPECT_NE(analysis::render_json(empty).find("\"clean\": true"),
            std::string::npos);
  const std::string sarif = analysis::render_sarif(empty);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

}  // namespace
}  // namespace tfpe
