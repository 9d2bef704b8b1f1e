#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace tfpe::analysis {

namespace {

constexpr std::array<RuleInfo, kRuleCount> kRegistry{{
    {RuleId::kOpSequence, "TFPE-OP-001", "op-sequence", Severity::kError,
     "the block must emit the canonical op order"},
    {RuleId::kFlopInvariance, "TFPE-OP-002", "flop-invariance",
     Severity::kError,
     "n1*n2 x per-GPU FLOPs must reproduce the serial block"},
    {RuleId::kActivationTerm, "TFPE-OP-003", "activation-term",
     Severity::kError, "each op must store exactly its table entry"},
    {RuleId::kActivationSum, "TFPE-OP-004", "activation-sum", Severity::kError,
     "the per-block stored total must partition across the ops"},
    {RuleId::kCollectiveStructure, "TFPE-OP-005", "collective-structure",
     Severity::kError,
     "each op must carry the collectives its table row prescribes"},
    {RuleId::kCollectiveVolume, "TFPE-OP-006", "collective-volume",
     Severity::kError,
     "collective volumes must match the re-derived Table I/II/A2 entries"},
    {RuleId::kShapeChain, "TFPE-OP-007", "shape-chain", Severity::kError,
     "each op's output element count must feed the next op's input"},
    {RuleId::kFwdBwdComm, "TFPE-OP-008", "fwd-bwd-comm", Severity::kError,
     "backward collectives must be the conjugates of the forward ones"},
    {RuleId::kFwdBwdFlops, "TFPE-OP-009", "fwd-bwd-flops", Severity::kWarning,
     "bwd/fwd FLOP ratios must stay in the counting-rule bands"},
    {RuleId::kPpBoundary, "TFPE-OP-010", "pp-boundary", Severity::kError,
     "the pipeline handoff must be one (b,l,e)/(n1 n2) tensor"},
    {RuleId::kSignatureNonnegative, "TFPE-SIG-001", "signature-nonnegative",
     Severity::kError,
     "every signature operand, volume and memory term must be >= 0"},
    {RuleId::kSignatureOpCount, "TFPE-SIG-002", "signature-op-count",
     Severity::kError, "the signature must carry one block slot per layer op"},
    {RuleId::kSignatureFlopTotal, "TFPE-SIG-003", "signature-flop-total",
     Severity::kError,
     "the block's FLOP sums must reproduce the layer totals"},
    {RuleId::kSignatureHbmTotal, "TFPE-SIG-004", "signature-hbm-total",
     Severity::kError,
     "the block's HBM byte sums must reproduce the layer totals"},
    {RuleId::kSignatureCommVolume, "TFPE-SIG-005", "signature-comm-volume",
     Severity::kError,
     "per-group collective volumes must match the layer extraction"},
    {RuleId::kSignatureStoredBytes, "TFPE-SIG-006", "signature-stored-bytes",
     Severity::kError,
     "stored activations must match layer.stored_bytes()"},
    {RuleId::kSignaturePpBoundary, "TFPE-SIG-007", "signature-pp-boundary",
     Severity::kError, "the pipeline handoff volume must be preserved"},
    {RuleId::kTopologyDepth, "TFPE-TOPO-001", "topology-depth",
     Severity::kError, "fabric depth must be within 1..kMaxDepth"},
    {RuleId::kTopologyPositive, "TFPE-TOPO-002", "topology-positive",
     Severity::kError,
     "every level needs positive bandwidth/rails and sane latency"},
    {RuleId::kTopologyFanIn, "TFPE-TOPO-003", "topology-fan-in",
     Severity::kError, "the fan-in product must cover the GPU count"},
    {RuleId::kTopologyMonotoneBw, "TFPE-TOPO-004", "topology-monotone-bw",
     Severity::kWarning,
     "per-member tier bandwidth should not increase outward"},
    {RuleId::kTopologyLeafDomain, "TFPE-TOPO-005", "topology-leaf-domain",
     Severity::kError,
     "a bounded leaf fan-in must equal the system's nvs_domain"},
    {RuleId::kPlacementValid, "TFPE-PLACE-001", "placement-valid",
     Severity::kError, "size >= 1, 0 < nvs <= size, nvs divides size"},
    {RuleId::kPlacementLeafFanIn, "TFPE-PLACE-002", "placement-leaf-fan-in",
     Severity::kError,
     "nvs must not exceed the fabric's bounded leaf fan-in"},
    {RuleId::kBatchedShape, "TFPE-BATCH-001", "batched-shape",
     Severity::kError,
     "block arrays must mirror the op graph bitwise"},
    {RuleId::kBatchedPanelScale, "TFPE-BATCH-002", "batched-panel-scale",
     Severity::kError,
     "per-panel pre-scaled volumes must match the scalar comm pool"},
    {RuleId::kBatchedPriceRow, "TFPE-BATCH-003", "batched-price-row",
     Severity::kError,
     "pricing-row dedup must preserve the request multiset"},
    {RuleId::kBatchedGroupMask, "TFPE-BATCH-004", "batched-group-mask",
     Severity::kError,
     "comm_groups_mask must list exactly the groups in the pool"},
    {RuleId::kBatchedSummaOps, "TFPE-BATCH-005", "batched-summa-ops",
     Severity::kError,
     "summa_ops must list exactly the panelled ops in op order"},
    {RuleId::kBatchedScratchShape, "TFPE-BATCH-006", "batched-scratch-shape",
     Severity::kError,
     "BatchScratch column/row shapes must agree with the pool and batch"},
    {RuleId::kSweepWarmChain, "TFPE-SWEEP-003", "sweep-warm-chain",
     Severity::kWarning,
     "points sharing a warm-start chain key should share one roofline"},
    {RuleId::kSystemCompute, "TFPE-SYS-001", "system-compute",
     Severity::kError,
     "GPU rooflines need positive rates, capacity and sane latency"},
    {RuleId::kSystemNetwork, "TFPE-SYS-002", "system-network",
     Severity::kError,
     "network alpha/beta/rails/efficiency must be sane"},
    {RuleId::kSystemDomain, "TFPE-SYS-003", "system-domain", Severity::kError,
     "nvs_domain must be >= 1 and divide the GPU count"},
    {RuleId::kSystemHbmFloor, "TFPE-SYS-004", "system-hbm-floor",
     Severity::kError,
     "the placement-invariant memory floor must fit in HBM"},
    {RuleId::kConfigParse, "TFPE-CFG-001", "config-parse", Severity::kError,
     "the file must parse as [section] / key = value lines"},
    {RuleId::kConfigUnknownSection, "TFPE-CFG-002", "config-unknown-section",
     Severity::kWarning, "section name not recognized by any consumer"},
    {RuleId::kConfigUnknownKey, "TFPE-CFG-003", "config-unknown-key",
     Severity::kError, "key not in the section's schema (typo protection)"},
    {RuleId::kConfigValue, "TFPE-CFG-004", "config-value", Severity::kError,
     "value fails the key's type or range check"},
    {RuleId::kConfigListLength, "TFPE-CFG-005", "config-list-length",
     Severity::kError,
     "per-level list length must match the declared levels"},
    {RuleId::kConfigMissingKey, "TFPE-CFG-006", "config-missing-key",
     Severity::kError, "a required key for this section is absent"},
    {RuleId::kCodesignBudget, "TFPE-CODESIGN-001", "codesign-budget",
     Severity::kError,
     "target_params_b must be positive and tolerance in (0, 1)"},
    {RuleId::kCodesignAxis, "TFPE-CODESIGN-002", "codesign-axis",
     Severity::kError,
     "a shape axis needs positive entries, min <= max and step >= 1"},
    {RuleId::kCodesignEmptyFamily, "TFPE-CODESIGN-003",
     "codesign-empty-family", Severity::kWarning,
     "the options enumerate zero iso-parameter shapes"},
    {RuleId::kServeKvBudget, "TFPE-SERVE-001", "serve-kv-budget",
     Severity::kError,
     "the [serving] KV budget must admit at least one resident request"},
    {RuleId::kServeBatchCap, "TFPE-SERVE-002", "serve-batch-cap",
     Severity::kWarning,
     "requested decode batch exceeds the KV occupancy cap"},
}};

/// JSON string escaping (control chars, quotes, backslash).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON number: finite doubles round-trip at max precision, non-finite
/// values (never expected, but never invalid JSON) render as null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

std::string sarif_level(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

}  // namespace

std::string to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

const RuleInfo& rule_info(RuleId id) {
  return kRegistry[static_cast<std::size_t>(id)];
}

const std::array<RuleInfo, kRuleCount>& all_rules() { return kRegistry; }

std::optional<RuleId> find_rule(std::string_view code_or_name) {
  for (const RuleInfo& r : kRegistry) {
    if (r.code == code_or_name || r.name == code_or_name) return r.id;
  }
  return std::nullopt;
}

bool RuleConfig::suppress(std::string_view code_or_name) {
  const auto id = find_rule(code_or_name);
  if (!id) return false;
  disable(*id);
  return true;
}

std::size_t LintReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::kError;
                    }));
}

std::size_t LintReport::warnings() const {
  return diagnostics.size() - errors();
}

std::string LintReport::summary() const { return render_text(*this); }

void DiagnosticSink::emit(RuleId id, std::string op, double expected,
                          double actual, std::string message,
                          std::optional<Severity> severity, std::string file,
                          int line) {
  if (!rules_.is_enabled(id)) return;
  const RuleInfo& info = rule_info(id);
  Diagnostic d;
  d.id = id;
  d.rule = std::string(info.name);
  d.op = std::move(op);
  d.expected = expected;
  d.actual = actual;
  d.message = std::move(message);
  d.severity = severity.value_or(info.default_severity);
  d.file = std::move(file);
  d.line = line;
  report_.diagnostics.push_back(std::move(d));
}

void DiagnosticSink::merge(LintReport other) {
  for (Diagnostic& d : other.diagnostics) {
    if (!rules_.is_enabled(d.id)) continue;
    report_.diagnostics.push_back(std::move(d));
  }
}

std::string render_text(const LintReport& report) {
  std::ostringstream out;
  for (const Diagnostic& d : report.diagnostics) {
    out << "[" << to_string(d.severity) << "] " << d.rule << " (" << d.code()
        << ") @ " << d.op;
    if (!d.file.empty()) {
      out << " [" << d.file;
      if (d.line > 0) out << ":" << d.line;
      out << "]";
    }
    out << ": " << d.message << "\n";
  }
  out << report.errors() << " error(s), " << report.warnings()
      << " warning(s)";
  return out.str();
}

std::string render_json(const LintReport& report) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"tfpe-lint\",\n  \"schema_version\": 1,\n"
      << "  \"errors\": " << report.errors()
      << ",\n  \"warnings\": " << report.warnings()
      << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    out << (i ? ",\n    {" : "\n    {");
    out << "\"id\": \"" << d.code() << "\", \"rule\": \""
        << json_escape(d.rule) << "\", \"severity\": \""
        << to_string(d.severity) << "\", \"op\": \"" << json_escape(d.op)
        << "\", \"expected\": " << json_number(d.expected)
        << ", \"actual\": " << json_number(d.actual) << ", \"message\": \""
        << json_escape(d.message) << "\"";
    if (!d.file.empty()) {
      out << ", \"file\": \"" << json_escape(d.file) << "\", \"line\": "
          << d.line;
    }
    out << "}";
  }
  out << (report.diagnostics.empty() ? "],\n" : "\n  ],\n");
  out << "  \"clean\": " << (report.clean() ? "true" : "false") << "\n}\n";
  return out.str();
}

std::string render_sarif(const LintReport& report) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\n"
      << "      \"name\": \"tfpe-lint\",\n"
      << "      \"informationUri\": "
         "\"https://github.com/tfpe/tfpe\",\n"
      << "      \"rules\": [";
  const auto& rules = all_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleInfo& r = rules[i];
    out << (i ? ",\n        {" : "\n        {");
    out << "\"id\": \"" << r.code << "\", \"name\": \"" << r.name
        << "\", \"shortDescription\": {\"text\": \"" << json_escape(r.summary)
        << "\"}, \"defaultConfiguration\": {\"level\": \""
        << sarif_level(r.default_severity) << "\"}}";
  }
  out << "\n      ]\n    }},\n"
      << "    \"results\": [";
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    const Diagnostic& d = report.diagnostics[i];
    out << (i ? ",\n      {" : "\n      {");
    out << "\"ruleId\": \"" << d.code()
        << "\", \"ruleIndex\": " << static_cast<std::size_t>(d.id)
        << ", \"level\": \"" << sarif_level(d.severity)
        << "\", \"message\": {\"text\": \"" << json_escape(d.message)
        << "\"}, \"locations\": [{";
    if (!d.file.empty()) {
      out << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
          << json_escape(d.file) << "\"}, \"region\": {\"startLine\": "
          << (d.line > 0 ? d.line : 1) << "}}, ";
    }
    out << "\"logicalLocations\": [{\"fullyQualifiedName\": \""
        << json_escape(d.op) << "\"}]}]";
    out << ", \"properties\": {\"expected\": " << json_number(d.expected)
        << ", \"actual\": " << json_number(d.actual) << "}}";
  }
  out << (report.diagnostics.empty() ? "]\n" : "\n    ]\n");
  out << "  }]\n}\n";
  return out.str();
}

}  // namespace tfpe::analysis
