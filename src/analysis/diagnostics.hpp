#pragma once
// Diagnostics engine shared by every lint pass: the central rule registry
// (stable machine-readable IDs, default severities, one-line meanings), the
// Diagnostic record, per-rule enable/suppress configuration, the
// DiagnosticSink the passes emit through, and renderers for human text,
// JSON and SARIF 2.1 output (`tfpe lint --format=...`).
//
// Every invariant checked anywhere in the codebase registers exactly one
// RuleId here. The stable code ("TFPE-SIG-003") is the external contract —
// CI annotations, suppression lists and the SARIF rule index key on it —
// while the short name ("signature-flop-total") stays the human mnemonic.
// Adding a rule means adding an enumerator AND a registry row (the table is
// static_assert-checked against kRuleCount); never renumber existing codes.
//
// This header is intentionally dependency-free (standard library only) so
// the negative-compile tests and every layer of the library can include it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tfpe::analysis {

enum class Severity {
  kWarning,  ///< Suspicious but heuristic (e.g. bwd/fwd FLOP ratio range).
  kError,    ///< A conservation law is violated; the artifact is wrong.
};

std::string to_string(Severity s);

/// Every registered lint rule, grouped by family. The enumerator order is
/// the registry order; codes are stable and never reused.
enum class RuleId : std::uint8_t {
  // TFPE-OP: op-graph conservation laws (Tables I / II / A2).
  kOpSequence,
  kFlopInvariance,
  kActivationTerm,
  kActivationSum,
  kCollectiveStructure,
  kCollectiveVolume,
  kShapeChain,
  kFwdBwdComm,
  kFwdBwdFlops,
  kPpBoundary,
  // TFPE-SIG: compiled CostSignature vs the layer it lowered from.
  kSignatureNonnegative,
  kSignatureOpCount,
  kSignatureFlopTotal,
  kSignatureHbmTotal,
  kSignatureCommVolume,
  kSignatureStoredBytes,
  kSignaturePpBoundary,
  // TFPE-TOPO: fabric topology sanity.
  kTopologyDepth,
  kTopologyPositive,
  kTopologyFanIn,
  kTopologyMonotoneBw,
  kTopologyLeafDomain,
  // TFPE-PLACE: collective group placements.
  kPlacementValid,
  kPlacementLeafFanIn,
  // TFPE-BATCH: SoA lowering soundness (batched engine vs scalar pool).
  kBatchedShape,
  kBatchedPanelScale,
  kBatchedPriceRow,
  kBatchedGroupMask,
  kBatchedSummaOps,
  kBatchedScratchShape,
  // TFPE-SWEEP: sweep-plan soundness (TFPE-SWEEP-001 and -002 are
  // retired).
  kSweepWarmChain,
  // TFPE-SYS: hardware description sanity.
  kSystemCompute,
  kSystemNetwork,
  kSystemDomain,
  kSystemHbmFloor,
  // TFPE-CFG: config-file schema (line-accurate locations).
  kConfigParse,
  kConfigUnknownSection,
  kConfigUnknownKey,
  kConfigValue,
  kConfigListLength,
  kConfigMissingKey,
  // TFPE-CODESIGN: [codesign] shape-family options (io/config_lint.cpp).
  kCodesignBudget,
  kCodesignAxis,
  kCodesignEmptyFamily,
  // TFPE-SERVE: [serving] evaluator feasibility (io/config_lint.cpp).
  kServeKvBudget,
  kServeBatchCap,
};

inline constexpr std::size_t kRuleCount = 46;

/// One registry row: the stable code, the short mnemonic name, the default
/// severity and the one-line meaning (surfaced in docs and SARIF).
struct RuleInfo {
  RuleId id = RuleId::kOpSequence;
  std::string_view code;     ///< Stable machine ID, e.g. "TFPE-OP-006".
  std::string_view name;     ///< Short mnemonic, e.g. "collective-volume".
  Severity default_severity = Severity::kError;
  std::string_view summary;  ///< One-line meaning of a firing.
};

/// The registry row for `id` (O(1); the table is indexed by enumerator).
const RuleInfo& rule_info(RuleId id);

/// All registered rules in enumerator order.
const std::array<RuleInfo, kRuleCount>& all_rules();

/// Lookup by stable code ("TFPE-OP-006") or short name ("collective-volume").
std::optional<RuleId> find_rule(std::string_view code_or_name);

/// One violated invariant, tied to the registered rule that derived it and
/// a structured location: the op / fabric level / comm group it fired on,
/// plus a file:line source reference for config-schema diagnostics.
struct Diagnostic {
  RuleId id = RuleId::kOpSequence;
  std::string rule;     ///< Short rule name, always rule_info(id).name.
  std::string op;       ///< Op/level/group anchor, "<layer>" for aggregates.
  double expected = 0;  ///< Value the invariant prescribes.
  double actual = 0;    ///< Value found in the checked artifact.
  std::string message;  ///< Human-readable explanation with units.
  Severity severity = Severity::kError;
  std::string file;     ///< Source config file; empty = not file-anchored.
  int line = 0;         ///< 1-based line in `file`; 0 = none.

  /// The stable code of this diagnostic's rule.
  std::string_view code() const { return rule_info(id).code; }
};

/// Per-rule enable/suppress switches applied at emission time.
struct RuleConfig {
  std::array<bool, kRuleCount> enabled;

  RuleConfig() { enabled.fill(true); }
  void enable(RuleId id) { enabled[static_cast<std::size_t>(id)] = true; }
  void disable(RuleId id) { enabled[static_cast<std::size_t>(id)] = false; }
  bool is_enabled(RuleId id) const {
    return enabled[static_cast<std::size_t>(id)];
  }
  /// Disable by code or name; false when the rule is unknown.
  bool suppress(std::string_view code_or_name);
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;

  bool clean() const { return diagnostics.empty(); }
  std::size_t errors() const;
  std::size_t warnings() const;
  /// Multi-line human report: one line per diagnostic plus a trailing count
  /// line (the text renderer; JSON/SARIF renderers live alongside).
  std::string summary() const;
};

/// Collects diagnostics for one lint pass, applying the per-rule
/// enable/suppress switches and filling severity + rule name from the
/// registry. Passes emit through a sink instead of pushing raw vectors.
class DiagnosticSink {
 public:
  DiagnosticSink() = default;
  explicit DiagnosticSink(RuleConfig rules) : rules_(rules) {}

  bool enabled(RuleId id) const { return rules_.is_enabled(id); }

  /// Emit one diagnostic; severity defaults to the registry's, the rule
  /// name is always taken from the registry. Dropped when suppressed.
  void emit(RuleId id, std::string op, double expected, double actual,
            std::string message,
            std::optional<Severity> severity = std::nullopt,
            std::string file = {}, int line = 0);

  /// Append another pass's report, re-applying this sink's suppressions.
  void merge(LintReport other);

  const LintReport& report() const { return report_; }
  LintReport take() { return std::move(report_); }

 private:
  RuleConfig rules_;
  LintReport report_;
};

/// Renderers for `tfpe lint --format=...`. All pure.
std::string render_text(const LintReport& report);
/// Single JSON object: {"tool", "schema_version", counts, "diagnostics"}.
std::string render_json(const LintReport& report);
/// SARIF 2.1.0 log with the full rule registry as tool.driver.rules and one
/// result per diagnostic (uploadable to the GitHub code-scanning API).
std::string render_sarif(const LintReport& report);

}  // namespace tfpe::analysis
