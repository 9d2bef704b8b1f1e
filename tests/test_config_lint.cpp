// Config-file schema lint: every TFPE-CFG rule with line-accurate
// locations, plus the pass-through into lint_system/lint_topology for
// schema-clean files describing unsound machines.
#include "io/config_lint.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace tfpe {
namespace {

using analysis::LintReport;
using analysis::RuleId;
using analysis::Severity;

LintReport lint(const std::string& text) {
  std::istringstream in(text);
  return io::lint_config_text(in, "test.tfpe");
}

/// The first diagnostic with rule `id`; fails the test when absent.
const analysis::Diagnostic& first(const LintReport& report, RuleId id) {
  for (const auto& d : report.diagnostics) {
    if (d.id == id) return d;
  }
  ADD_FAILURE() << "expected rule " << analysis::rule_info(id).code
                << " in:\n"
                << report.summary();
  static const analysis::Diagnostic none{};
  return none;
}

std::size_t count_rule(const LintReport& report, RuleId id) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics) n += d.id == id;
  return n;
}

TEST(ConfigLint, CleanPlanFileIsClean) {
  const LintReport report = lint(
      "[plan]\n"
      "strategy = 2d\n"
      "n1 = 8\n"
      "n2 = 2\n"
      "np = 4\n"
      "nd = 16\n"
      "microbatches = 8\n"
      "global_batch = 2048\n");
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ConfigLint, UnparseableTextFiresConfigParseWithLine) {
  const LintReport report = lint("[plan]\nthis line has no equals sign\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const auto& d = first(report, RuleId::kConfigParse);
  EXPECT_EQ(d.file, "test.tfpe");
  EXPECT_EQ(d.line, 2);
  EXPECT_EQ(d.severity, Severity::kError);
}

TEST(ConfigLint, UnknownSectionWarnsAtHeaderLine) {
  const LintReport report = lint(
      "# comment\n"
      "[nonsense]\n"
      "foo = 1\n");
  const auto& d = first(report, RuleId::kConfigUnknownSection);
  EXPECT_EQ(d.line, 2);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(report.errors(), 0u);
}

TEST(ConfigLint, PreambleKeysWarn) {
  const LintReport report = lint("stray = 1\n[sweep]\nnvs = 8\n");
  const auto& d = first(report, RuleId::kConfigUnknownSection);
  EXPECT_EQ(d.op, "<preamble>");
}

TEST(ConfigLint, UnknownKeyFiresAtItsOwnLine) {
  const LintReport report = lint(
      "[plan]\n"
      "strategy = 1d\n"
      "n1 = 8\n"
      "np = 1\n"
      "nd = 1\n"
      "microbatches = 1\n"
      "global_batch = 8\n"
      "bogus = 3\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const auto& d = first(report, RuleId::kConfigUnknownKey);
  EXPECT_EQ(d.line, 8);
  EXPECT_EQ(d.op, "[plan] bogus");
}

TEST(ConfigLint, BadPlanValuesFireConfigValue) {
  const LintReport report = lint(
      "[plan]\n"
      "strategy = 3d\n"
      "n1 = 8\n"
      "np = 1\n"
      "nd = zero\n"
      "microbatches = 1\n"
      "global_batch = 8\n");
  EXPECT_EQ(count_rule(report, RuleId::kConfigValue), 2u)
      << report.summary();
  const auto& d = first(report, RuleId::kConfigValue);
  EXPECT_EQ(d.line, 2);  // strategy first ([plan] iterates alphabetically
                         // for values, but strategy is checked first)
}

TEST(ConfigLint, MissingRequiredPlanKeysFireConfigMissingKey) {
  const LintReport report = lint("[plan]\nstrategy = 1d\n");
  EXPECT_EQ(count_rule(report, RuleId::kConfigMissingKey), 5u)
      << report.summary();
  EXPECT_EQ(first(report, RuleId::kConfigMissingKey).line, 1);
}

TEST(ConfigLint, TopologyListLengthMismatchFiresAtKeyLine) {
  const LintReport report = lint(
      "[topology]\n"
      "levels = nvs, spine\n"
      "fan_in = 8, 64, 2\n"
      "gbs = 900, 50\n");
  ASSERT_EQ(report.diagnostics.size(), 1u) << report.summary();
  const auto& d = first(report, RuleId::kConfigListLength);
  EXPECT_EQ(d.line, 3);
  EXPECT_EQ(d.expected, 2.0);
  EXPECT_EQ(d.actual, 3.0);
}

TEST(ConfigLint, TopologyMissingRequiredKeys) {
  const LintReport report = lint("[topology]\nlevels = nvs, spine\n");
  EXPECT_EQ(count_rule(report, RuleId::kConfigMissingKey), 1u)
      << report.summary();  // gbs missing; levels present
}

TEST(ConfigLint, SchemaCleanTopologyStillRunsTopologyLint) {
  // Parses, consistent lists, builder-acceptable — but the outer level is
  // FASTER than the inner one, which the fabric sanity pass flags: the
  // merged lint_topology must fire, anchored to the file.
  const LintReport report = lint(
      "[topology]\n"
      "levels = nvs, spine\n"
      "fan_in = 8, 8\n"
      "gbs = 100, 900\n");
  const auto& d = first(report, RuleId::kTopologyMonotoneBw);
  EXPECT_EQ(d.file, "test.tfpe");
  EXPECT_EQ(d.line, 1);
  EXPECT_EQ(d.severity, Severity::kWarning);
}

TEST(ConfigLint, SchemaCleanSystemStillRunsSystemLint) {
  const LintReport report = lint(
      "[system]\n"
      "gpu = b200\n"
      "efficiency = 2.0\n"
      "nvs_domain = 8\n"
      "n_gpus = 64\n");
  const auto& d = first(report, RuleId::kSystemNetwork);
  EXPECT_EQ(d.file, "test.tfpe");
  EXPECT_EQ(d.line, 1);
}

TEST(ConfigLint, SweepAxisValuesAreValidated) {
  const LintReport report = lint(
      "[sweep]\n"
      "model = gpt3-175b, not-a-model\n"
      "gpu = b200, k80\n"
      "nvs = 8, -2\n"
      "oversub = 0.5\n"
      "strategy = 1d\n");
  EXPECT_EQ(count_rule(report, RuleId::kConfigValue), 4u)
      << report.summary();
}

TEST(ConfigLint, UnreadableFileFiresConfigParse) {
  const LintReport report =
      io::lint_config_file("/nonexistent/nowhere.tfpe");
  const auto& d = first(report, RuleId::kConfigParse);
  EXPECT_EQ(d.file, "/nonexistent/nowhere.tfpe");
}

TEST(ConfigLint, SuppressionSilencesARule) {
  analysis::LintOptions opts;
  ASSERT_TRUE(opts.rules.suppress("TFPE-CFG-002"));
  std::istringstream in("[nonsense]\nfoo = 1\n");
  EXPECT_TRUE(io::lint_config_text(in, "test.tfpe", opts).clean());
}

// ------------------------------------------------------- [codesign] rules

/// A schema-clean [codesign] section (with a base [model] so the
/// empty-family probe can run) that must lint clean — the baseline every
/// mutation below perturbs by exactly one key.
const char* kCleanCodesign =
    "[model]\n"
    "preset = gpt3-175b\n"
    "[codesign]\n"
    "target_params_b = 175\n"
    "tolerance = 0.05\n"
    "depths = 48, 96, 192\n"
    "heads = 64, 96\n"
    "head_dims = 128\n"
    "aspect_min = 1.0\n"
    "aspect_max = 8.0\n"
    "hidden_multiple = 128\n"
    "kv_heads = 0\n"
    "moe_experts = 0\n";

TEST(ConfigLint, CleanCodesignSectionIsClean) {
  const LintReport report = lint(kCleanCodesign);
  EXPECT_TRUE(report.clean()) << report.summary();
}

/// Replace the line starting with `key` in kCleanCodesign by `mutation`.
std::string mutate_codesign(const std::string& key,
                            const std::string& mutation) {
  std::string text(kCleanCodesign);
  const auto at = text.find("\n" + key);
  EXPECT_NE(at, std::string::npos) << key;
  const auto end = text.find('\n', at + 1);
  return text.substr(0, at + 1) + mutation + text.substr(end);
}

TEST(ConfigLint, CodesignBudgetMutationsFire) {
  for (const char* mutation :
       {"target_params_b = -1", "target_params_b = many",
        "tolerance = 0", "tolerance = 1", "tolerance = -0.1",
        "tolerance = approximately"}) {
    const std::string key =
        std::string(mutation).substr(0, std::string(mutation).find(' '));
    const LintReport report = lint(mutate_codesign(key, mutation));
    const auto& d = first(report, RuleId::kCodesignBudget);
    EXPECT_EQ(d.severity, Severity::kError) << mutation;
    EXPECT_EQ(d.file, "test.tfpe") << mutation;
    EXPECT_GT(d.line, 0) << mutation;
    EXPECT_EQ(d.code(), "TFPE-CODESIGN-001") << mutation;
  }
}

TEST(ConfigLint, CodesignAxisMutationsFire) {
  const std::pair<const char*, const char*> mutations[] = {
      {"depths", "depths = 48, 0, 192"},
      {"depths", "depths = 48, deep"},
      {"heads", "heads = -64"},
      {"head_dims", "head_dims = 0"},
      {"kv_heads", "kv_heads = -1"},
      {"moe_experts", "moe_experts = -8"},
      {"aspect_min", "aspect_min = 0"},
      {"aspect_max", "aspect_max = -2"},
      {"aspect_min", "aspect_min = 9.5"},  // exceeds aspect_max = 8.0
      {"hidden_multiple", "hidden_multiple = 0"},
  };
  for (const auto& [key, mutation] : mutations) {
    const LintReport report = lint(mutate_codesign(key, mutation));
    const auto& d = first(report, RuleId::kCodesignAxis);
    EXPECT_EQ(d.severity, Severity::kError) << mutation;
    EXPECT_GT(d.line, 0) << mutation;
    EXPECT_EQ(d.code(), "TFPE-CODESIGN-002") << mutation;
  }
}

TEST(ConfigLint, CodesignRangeAxisMutationsFire) {
  const LintReport report = lint(
      "[codesign]\n"
      "depth_min = 96\n"
      "depth_max = 32\n"
      "heads_step = 0\n");
  EXPECT_GE(count_rule(report, RuleId::kCodesignAxis), 2u)
      << report.summary();
  const auto& d = first(report, RuleId::kCodesignAxis);
  EXPECT_EQ(d.file, "test.tfpe");
}

TEST(ConfigLint, CodesignEmptyFamilyWarns) {
  // A 1000x parameter budget no shape in these narrow axes can reach.
  const LintReport report =
      lint(mutate_codesign("target_params_b", "target_params_b = 175000"));
  const auto& d = first(report, RuleId::kCodesignEmptyFamily);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.code(), "TFPE-CODESIGN-003");
  EXPECT_EQ(report.errors(), 0u) << report.summary();
}

TEST(ConfigLint, CodesignUnknownKeyFires) {
  const LintReport report =
      lint(mutate_codesign("hidden_multiple", "hidden_multiples = 128"));
  const auto& d = first(report, RuleId::kConfigUnknownKey);
  EXPECT_NE(d.message.find("hidden_multiples"), std::string::npos);
}

}  // namespace
}  // namespace tfpe
