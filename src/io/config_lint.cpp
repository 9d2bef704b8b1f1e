#include "io/config_lint.hpp"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/consistency.hpp"
#include "core/inference_estimate.hpp"
#include "hw/topology.hpp"
#include "io/config_file.hpp"
#include "io/plan_io.hpp"
#include "util/strings.hpp"

namespace tfpe::io {

namespace {

using analysis::DiagnosticSink;
using analysis::RuleId;

/// Per-section key schemas — mirror the reject_unknown sets of the loaders
/// (config_file.cpp / plan_io.cpp / the sweep reader in tfpe_cli.cpp).
const std::set<std::string>& section_keys(const std::string& section) {
  static const std::set<std::string> kModel{
      "name", "seq_len", "embed",       "heads",     "depth",
      "hidden", "kv_heads", "vocab",    "attention", "window",
      "moe_experts", "moe_top_k", "preset"};
  static const std::set<std::string> kSystem{
      "gpu", "tensor_tflops", "vector_tflops", "flops_latency", "hbm_gb",
      "hbm_gbs", "nvs_gbs", "nvs_latency", "ib_gbs", "ib_latency",
      "nics_per_gpu", "efficiency", "nvs_domain", "n_gpus", "host_gbs",
      "enable_tree", "pod_size", "oversubscription"};
  static const std::set<std::string> kTopology{
      "levels", "fan_in", "latency_us", "gbs", "rails", "pod_size",
      "oversubscription", "efficiency", "enable_tree", "enable_ll",
      "ll_latency_scale", "ll_bandwidth_scale", "enable_hierarchical"};
  static const std::set<std::string> kPlan{
      "strategy", "n1", "n2", "np", "nd", "microbatches", "nb", "interleave",
      "zero", "nvs1", "nvs2", "nvsp", "nvsd", "global_batch"};
  static const std::set<std::string> kSweep{
      "model", "gpu", "nvs", "oversub", "leaf", "gpus", "strategy", "batch",
      "output"};
  static const std::set<std::string> kCalibration{
      "compute_efficiency", "bandwidth_efficiency", "global_batch",
      "measured_seconds"};
  static const std::set<std::string> kCodesign{
      "target_params_b", "tolerance", "depths", "depth_min", "depth_max",
      "depth_step", "heads", "heads_min", "heads_max", "heads_step",
      "head_dims", "aspect_min", "aspect_max", "hidden_multiple", "kv_heads",
      "moe_experts"};
  static const std::set<std::string> kServing{
      "prompt_len", "output_len", "tp", "pp", "batch", "kv_cap_fraction",
      "max_batch"};
  static const std::set<std::string> kNone{};
  if (section == "model") return kModel;
  if (section == "system") return kSystem;
  if (section == "topology") return kTopology;
  if (section == "plan") return kPlan;
  if (section == "sweep") return kSweep;
  if (section == "calibration") return kCalibration;
  if (section == "codesign") return kCodesign;
  if (section == "serving") return kServing;
  return kNone;
}

bool known_section(const std::string& section) {
  return section == "model" || section == "system" || section == "topology" ||
         section == "plan" || section == "sweep" ||
         section == "calibration" || section == "codesign" ||
         section == "serving";
}

bool parses_as_double(const std::string& value, double* out = nullptr) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) return false;
    if (out) *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool parses_as_int(const std::string& value, std::int64_t* out = nullptr) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) return false;
    if (out) *out = v;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Extract "N" from "config line N: ..." parser messages; 0 when absent.
int parse_error_line(const std::string& what) {
  const std::string tag = "config line ";
  const auto at = what.find(tag);
  if (at == std::string::npos) return 0;
  return std::atoi(what.c_str() + at + tag.size());
}

class ConfigLinter {
 public:
  ConfigLinter(const std::string& filename, const analysis::LintOptions& opts)
      : file_(filename), sink_(opts.rules), opts_(opts) {}

  analysis::LintReport run(std::istream& in) {
    try {
      sections_ = parse_config(in, &where_);
    } catch (const std::exception& e) {
      sink_.emit(RuleId::kConfigParse, "<file>", 0, 0, e.what(), std::nullopt,
                 file_, parse_error_line(e.what()));
      return sink_.take();
    }

    for (const auto& [name, section] : sections_) {
      if (name.empty()) {
        if (!section.empty()) {
          sink_.emit(RuleId::kConfigUnknownSection, "<preamble>", 0, 0,
                     "keys before the first [section] header belong to no "
                     "loader",
                     std::nullopt, file_, 0);
        }
        continue;
      }
      if (!known_section(name)) {
        sink_.emit(RuleId::kConfigUnknownSection, "[" + name + "]", 0, 0,
                   "no loader consumes section [" + name + "]", std::nullopt,
                   file_, section_line(name));
        continue;
      }
      lint_keys(name, section);
    }

    lint_model();
    lint_system_section();
    lint_topology_section();
    lint_plan();
    lint_sweep();
    lint_calibration();
    lint_codesign();
    lint_serving();
    return sink_.take();
  }

 private:
  int section_line(const std::string& section) const {
    const auto it = where_.find(section);
    return it == where_.end() ? 0 : it->second.line;
  }
  int key_line(const std::string& section, const std::string& key) const {
    const auto it = where_.find(section);
    if (it == where_.end()) return 0;
    const auto kt = it->second.keys.find(key);
    return kt == it->second.keys.end() ? 0 : kt->second;
  }
  const Section* section(const std::string& name) const {
    const auto it = sections_.find(name);
    return it == sections_.end() ? nullptr : &it->second;
  }

  void emit(RuleId rule, const std::string& section, const std::string& key,
            double expected, double actual, const std::string& message) {
    const int line = key.empty() ? section_line(section)
                                 : key_line(section, key);
    const std::string op =
        key.empty() ? "[" + section + "]" : "[" + section + "] " + key;
    sink_.emit(rule, op, expected, actual, message, std::nullopt, file_,
               line);
  }

  /// Unknown keys of a known section, each at its own line. Returns true
  /// when the section's key set is schema-clean (the loaders would not
  /// reject it for a typo).
  bool lint_keys(const std::string& name, const Section& s) {
    bool ok = true;
    const auto& known = section_keys(name);
    for (const auto& [key, value] : s) {
      (void)value;
      if (!known.count(key)) {
        emit(RuleId::kConfigUnknownKey, name, key, 0, 0,
             "unknown key '" + key + "' in [" + name + "]");
        ok = false;
      }
    }
    return ok;
  }

  /// Strip unknown keys so a builder can still run after config-unknown-key
  /// fired (we want ALL problems in one report, not the first throw).
  Section known_subset(const std::string& name, const Section& s) const {
    Section out;
    const auto& known = section_keys(name);
    for (const auto& [key, value] : s) {
      if (known.count(key)) out[key] = value;
    }
    return out;
  }

  void lint_model() {
    const Section* s = section("model");
    if (!s) return;
    try {
      (void)model_from_section(known_subset("model", *s));
    } catch (const std::exception& e) {
      emit(RuleId::kConfigValue, "model", "", 0, 0, e.what());
    }
  }

  void lint_system_section() {
    const Section* s = section("system");
    if (!s) return;
    try {
      hw::SystemConfig sys = system_from_section(known_subset("system", *s));
      if (const Section* t = section("topology")) {
        try {
          sys.fabric = topology_from_section(known_subset("topology", *t));
        } catch (const std::exception&) {
          // Reported by lint_topology_section; lint the system without it.
        }
      }
      sink_.merge(with_location(analysis::lint_system(sys, opts_),
                                section_line("system")));
    } catch (const std::exception& e) {
      emit(RuleId::kConfigValue, "system", "", 0, 0, e.what());
    }
  }

  void lint_topology_section() {
    const Section* s = section("topology");
    if (!s) return;
    // Required keys first (the builder throws on the first one only).
    bool required_ok = true;
    for (const char* key : {"levels", "gbs"}) {
      if (!s->count(key)) {
        emit(RuleId::kConfigMissingKey, "topology", "", 0, 0,
             std::string("[topology] requires '") + key + "'");
        required_ok = false;
      }
    }
    // Per-level list lengths, each at its own key line.
    bool lists_ok = true;
    std::size_t n = 0;
    if (const auto lv = s->find("levels"); lv != s->end()) {
      n = util::split_list(lv->second).size();
      for (const char* key : {"fan_in", "latency_us", "gbs", "rails",
                              "pod_size", "oversubscription"}) {
        const auto it = s->find(key);
        if (it == s->end()) continue;
        const std::size_t got = util::split_list(it->second).size();
        if (got != n) {
          std::ostringstream msg;
          msg << "'" << key << "' has " << got << " entries, 'levels' names "
              << n << " levels";
          emit(RuleId::kConfigListLength, "topology", key,
               static_cast<double>(n), static_cast<double>(got), msg.str());
          lists_ok = false;
        }
      }
    }
    if (!required_ok || !lists_ok) return;
    try {
      const hw::Topology topo =
          topology_from_section(known_subset("topology", *s));
      std::int64_t n_gpus = 0;
      if (const Section* sys = section("system")) {
        const auto it = sys->find("n_gpus");
        if (it != sys->end()) parses_as_int(it->second, &n_gpus);
      }
      sink_.merge(with_location(analysis::lint_topology(topo, n_gpus, opts_),
                                section_line("topology")));
    } catch (const std::exception& e) {
      emit(RuleId::kConfigValue, "topology", "", 0, 0, e.what());
    }
  }

  void lint_plan() {
    const Section* s = section("plan");
    if (!s) return;
    for (const char* key :
         {"strategy", "n1", "np", "nd", "microbatches", "global_batch"}) {
      if (!s->count(key)) {
        emit(RuleId::kConfigMissingKey, "plan", "", 0, 0,
             std::string("[plan] requires '") + key + "'");
      }
    }
    if (const auto it = s->find("strategy"); it != s->end()) {
      if (!parallel::strategy_by_name(it->second)) {
        emit(RuleId::kConfigValue, "plan", "strategy", 0, 0,
             "unknown strategy '" + it->second + "' (1d|2d|summa)");
      }
    }
    for (const auto& [key, value] : *s) {
      if (key == "strategy" || !section_keys("plan").count(key)) continue;
      std::int64_t v = 0;
      if (!parses_as_int(value, &v) || v < 1) {
        emit(RuleId::kConfigValue, "plan", key, 1, 0,
             "'" + key + "' must be a positive integer, got '" + value +
                 "'");
      }
    }
  }

  void lint_sweep() {
    const Section* s = section("sweep");
    if (!s) return;
    const auto check_axis = [&](const std::string& key, auto&& valid,
                                const char* expect) {
      const auto it = s->find(key);
      if (it == s->end()) return;
      for (const std::string& item : util::split_list(it->second)) {
        if (!valid(item)) {
          emit(RuleId::kConfigValue, "sweep", key, 0, 0,
               "'" + key + "' entry '" + item + "' " + expect);
        }
      }
    };
    check_axis("model",
               [](const std::string& v) {
                 return model::preset_by_name(v).has_value();
               },
               "is not a known model preset");
    check_axis("gpu",
               [](const std::string& v) {
                 return hw::generation_by_name(v).has_value();
               },
               "is not a known gpu preset (a100|h200|b200)");
    check_axis("strategy",
               [](const std::string& v) {
                 return parallel::strategy_by_name(v).has_value();
               },
               "is not a strategy (1d|2d|summa)");
    const auto positive_int = [](const std::string& v) {
      std::int64_t i = 0;
      return parses_as_int(v, &i) && i >= 1;
    };
    check_axis("nvs", positive_int, "must be a positive integer");
    check_axis("gpus", positive_int, "must be a positive integer");
    check_axis("batch", positive_int, "must be a positive integer");
    check_axis("leaf", positive_int, "must be a positive integer");
    check_axis("oversub",
               [](const std::string& v) {
                 double d = 0;
                 return parses_as_double(v, &d) && d >= 1.0;
               },
               "must be a ratio >= 1");
  }

  void lint_calibration() {
    const Section* s = section("calibration");
    if (!s) return;
    for (const char* key : {"compute_efficiency", "bandwidth_efficiency"}) {
      const auto it = s->find(key);
      if (it == s->end()) continue;
      double v = 0;
      if (!parses_as_double(it->second, &v) || !(v > 0.0) || v > 1.0) {
        emit(RuleId::kConfigValue, "calibration", key, 0.7, v,
             std::string("'") + key + "' must be a fraction in (0, 1], got '" +
                 it->second + "'");
      }
    }
    if (const auto it = s->find("global_batch"); it != s->end()) {
      std::int64_t v = 0;
      if (!parses_as_int(it->second, &v) || v < 1) {
        emit(RuleId::kConfigValue, "calibration", "global_batch", 1, 0,
             "'global_batch' must be a positive integer, got '" + it->second +
                 "'");
      }
    }
    if (const auto it = s->find("measured_seconds"); it != s->end()) {
      double v = 0;
      if (!parses_as_double(it->second, &v) || !(v > 0.0)) {
        emit(RuleId::kConfigValue, "calibration", "measured_seconds", 1, v,
             "'measured_seconds' must be > 0, got '" + it->second + "'");
      }
    }
  }

  /// [codesign] shape-family options, each problem at its own key line:
  /// the parameter-budget band (TFPE-CODESIGN-001), every enumeration axis
  /// (TFPE-CODESIGN-002), and — when the section is otherwise sound and a
  /// [model] builds — a warning when the options enumerate zero shapes
  /// (TFPE-CODESIGN-003).
  void lint_codesign() {
    const Section* s = section("codesign");
    if (!s) return;
    bool ok = true;
    const auto bad = [&](RuleId rule, const std::string& key, double expected,
                         double actual, const std::string& message) {
      emit(rule, "codesign", key, expected, actual, message);
      ok = false;
    };

    // -- budget band (TFPE-CODESIGN-001)
    if (const auto it = s->find("target_params_b"); it != s->end()) {
      double v = 0;
      if (!parses_as_double(it->second, &v) || v < 0.0) {
        bad(RuleId::kCodesignBudget, "target_params_b", 0, v,
            "'target_params_b' must be a parameter count in billions >= 0 "
            "(0 = the [model]'s own total), got '" + it->second + "'");
      }
    }
    if (const auto it = s->find("tolerance"); it != s->end()) {
      double v = 0;
      if (!parses_as_double(it->second, &v) || !(v > 0.0) || !(v < 1.0)) {
        bad(RuleId::kCodesignBudget, "tolerance", 0.02, v,
            "'tolerance' must be a relative band in (0, 1), got '" +
                it->second + "'");
      }
    }

    // -- enumeration axes (TFPE-CODESIGN-002)
    const auto int_axis = [&](const std::string& key, std::int64_t lo,
                              const char* expect) {
      const auto it = s->find(key);
      if (it == s->end()) return;
      for (const std::string& item : util::split_list(it->second)) {
        std::int64_t v = 0;
        if (!parses_as_int(item, &v) || v < lo) {
          bad(RuleId::kCodesignAxis, key, static_cast<double>(lo),
              static_cast<double>(v),
              "'" + key + "' entry '" + item + "' " + expect);
        }
      }
    };
    int_axis("depths", 1, "must be a positive layer count");
    int_axis("heads", 1, "must be a positive head count");
    int_axis("head_dims", 1, "must be a positive head dimension");
    int_axis("kv_heads", 0, "must be a K/V head count >= 0 (0 = MHA)");
    int_axis("moe_experts", 0, "must be an expert count >= 0 (0 = dense)");
    const auto range_axis = [&](const std::string& axis) {
      std::int64_t lo = 0, hi = 0, step = 1;
      bool have_lo = false, have_hi = false;
      for (const char* suffix : {"_min", "_max", "_step"}) {
        const std::string key = axis + suffix;
        const auto it = s->find(key);
        if (it == s->end()) continue;
        std::int64_t v = 0;
        if (!parses_as_int(it->second, &v) || v < 1) {
          bad(RuleId::kCodesignAxis, key, 1, static_cast<double>(v),
              "'" + key + "' must be a positive integer, got '" + it->second +
                  "'");
          return;
        }
        if (suffix == std::string("_min")) { lo = v; have_lo = true; }
        else if (suffix == std::string("_max")) { hi = v; have_hi = true; }
        else step = v;
      }
      (void)step;
      if (have_lo && have_hi && lo > hi) {
        bad(RuleId::kCodesignAxis, axis + "_min", static_cast<double>(hi),
            static_cast<double>(lo),
            "'" + axis + "_min' exceeds '" + axis + "_max'");
      }
    };
    range_axis("depth");
    range_axis("heads");
    double aspect_min = 2.0, aspect_max = 6.0;
    if (const auto it = s->find("aspect_min"); it != s->end()) {
      if (!parses_as_double(it->second, &aspect_min) ||
          !(aspect_min > 0.0)) {
        bad(RuleId::kCodesignAxis, "aspect_min", 2.0, aspect_min,
            "'aspect_min' must be > 0, got '" + it->second + "'");
      }
    }
    if (const auto it = s->find("aspect_max"); it != s->end()) {
      if (!parses_as_double(it->second, &aspect_max) ||
          !(aspect_max > 0.0)) {
        bad(RuleId::kCodesignAxis, "aspect_max", 6.0, aspect_max,
            "'aspect_max' must be > 0, got '" + it->second + "'");
      }
    }
    if (ok && aspect_min > aspect_max) {
      bad(RuleId::kCodesignAxis, "aspect_min", aspect_max, aspect_min,
          "'aspect_min' exceeds 'aspect_max'");
    }
    if (const auto it = s->find("hidden_multiple"); it != s->end()) {
      std::int64_t v = 0;
      if (!parses_as_int(it->second, &v) || v < 1) {
        bad(RuleId::kCodesignAxis, "hidden_multiple", 128,
            static_cast<double>(v),
            "'hidden_multiple' must be a positive integer, got '" +
                it->second + "'");
      }
    }

    // -- empty family (TFPE-CODESIGN-003): only meaningful once the section
    //    itself is sound and a base [model] builds.
    if (!ok) return;
    const Section* m = section("model");
    if (!m) return;
    try {
      const auto base = model_from_section(known_subset("model", *m));
      const auto opts = codesign_from_section(known_subset("codesign", *s));
      const auto family = model::shape_family(base, opts);
      if (family.empty()) {
        emit(RuleId::kCodesignEmptyFamily, "codesign", "", 1, 0,
             "[codesign] enumerates zero shapes around " + base.name +
                 "'s parameter budget — widen the axes, the aspect window "
                 "or the tolerance");
      }
    } catch (const std::exception&) {
      // Model/section problems are reported by their own passes.
    }
  }

  /// [serving] serve-plan grid: per-key value checks (TFPE-CFG-004), then —
  /// when the section is sound and a [model] + [system] build — the
  /// feasibility screens: no (tp, pp) shape whose KV budget admits even one
  /// resident request at batch = 1 is an error (TFPE-SERVE-001), and a
  /// requested batch beyond what the best shape can keep resident is a
  /// warning (TFPE-SERVE-002) — the scheduler would silently clip it.
  void lint_serving() {
    const Section* s = section("serving");
    if (!s) return;
    bool ok = true;
    const auto bad = [&](const std::string& key, double expected,
                         double actual, const std::string& message) {
      emit(RuleId::kConfigValue, "serving", key, expected, actual, message);
      ok = false;
    };

    for (const char* key : {"prompt_len", "output_len"}) {
      const auto it = s->find(key);
      if (it == s->end()) continue;
      std::int64_t v = 0;
      if (!parses_as_int(it->second, &v) || v < 1) {
        bad(key, 1, static_cast<double>(v),
            std::string("'") + key + "' must be a positive token count, "
            "got '" + it->second + "'");
      }
    }
    for (const char* key : {"tp", "pp", "batch"}) {
      const auto it = s->find(key);
      if (it == s->end()) continue;
      for (const std::string& item : util::split_list(it->second)) {
        std::int64_t v = 0;
        if (!parses_as_int(item, &v) || v < 1) {
          bad(key, 1, static_cast<double>(v),
              std::string("'") + key + "' entry '" + item +
                  "' must be a positive integer");
        }
      }
    }
    if (const auto it = s->find("kv_cap_fraction"); it != s->end()) {
      double v = 0;
      if (!parses_as_double(it->second, &v) || !(v > 0.0) || v > 1.0) {
        bad("kv_cap_fraction", 0.9, v,
            "'kv_cap_fraction' must be an HBM fraction in (0, 1], got '" +
                it->second + "'");
      }
    }
    if (const auto it = s->find("max_batch"); it != s->end()) {
      std::int64_t v = 0;
      if (!parses_as_int(it->second, &v) || v < 0) {
        bad("max_batch", 0, static_cast<double>(v),
            "'max_batch' must be >= 0 (0 = uncapped), got '" + it->second +
                "'");
      }
    }

    // -- feasibility (TFPE-SERVE-001/002): needs a sound section plus a
    //    buildable [model] and [system].
    if (!ok) return;
    const Section* m = section("model");
    const Section* sys_s = section("system");
    if (!m || !sys_s) return;
    try {
      const auto mdl = model_from_section(known_subset("model", *m));
      hw::SystemConfig sys =
          system_from_section(known_subset("system", *sys_s));
      if (const Section* t = section("topology")) {
        try {
          sys.fabric = topology_from_section(known_subset("topology", *t));
        } catch (const std::exception&) {
          // Reported by lint_topology_section; screen without the override.
        }
      }
      const auto spec = serving_from_section(known_subset("serving", *s));
      const core::Workload w = spec.workload();
      std::int64_t requested = 0;
      for (const std::int64_t b : spec.batch) {
        if (spec.max_batch > 0 && b > spec.max_batch) continue;
        requested = std::max(requested, b);
      }
      bool any_resident = false;
      std::int64_t best_admitted = 0;
      for (const std::int64_t tp : spec.tp) {
        for (const std::int64_t pp : spec.pp) {
          core::ServingConfig sc;
          sc.tp = tp;
          sc.pp = pp;
          sc.batch = std::max<std::int64_t>(requested, 1);
          sc.kv_cap_fraction = spec.kv_cap_fraction;
          const auto est = core::estimate_serving(mdl, sys, w, sc);
          if (est.admitted_batch >= 1) any_resident = true;
          if (est.feasible) {
            best_admitted = std::max(best_admitted, est.admitted_batch);
          }
        }
      }
      if (!any_resident) {
        emit(RuleId::kServeKvBudget, "serving", "", 1, 0,
             "no (tp, pp) shape of the [serving] grid fits one request's KV "
             "cache next to the weights — raise tp/pp, shorten the context "
             "or raise kv_cap_fraction");
      } else if (requested > best_admitted && best_admitted > 0) {
        emit(RuleId::kServeBatchCap, "serving", "batch",
             static_cast<double>(best_admitted),
             static_cast<double>(requested),
             "requested batch " + std::to_string(requested) +
                 " exceeds the " + std::to_string(best_admitted) +
                 " requests the best shape can keep resident; the scheduler "
                 "will clip it");
      }
    } catch (const std::exception&) {
      // Model/system/section problems are reported by their own passes.
    }
  }

  /// Anchor a merged sub-report's diagnostics at this file (section line).
  analysis::LintReport with_location(analysis::LintReport r, int line) const {
    for (analysis::Diagnostic& d : r.diagnostics) {
      if (d.file.empty()) {
        d.file = file_;
        d.line = line;
      }
    }
    return r;
  }

  std::string file_;
  DiagnosticSink sink_;
  analysis::LintOptions opts_;
  ConfigSections sections_;
  ConfigLocations where_;
};

}  // namespace

analysis::LintReport lint_config_text(std::istream& in,
                                      const std::string& filename,
                                      const analysis::LintOptions& opts) {
  return ConfigLinter(filename, opts).run(in);
}

analysis::LintReport lint_config_file(const std::string& path,
                                      const analysis::LintOptions& opts) {
  std::ifstream in(path);
  if (!in) {
    DiagnosticSink sink(opts.rules);
    sink.emit(RuleId::kConfigParse, "<file>", 0, 0,
              "cannot open config file " + path, std::nullopt, path, 0);
    return sink.take();
  }
  return lint_config_text(in, path, opts);
}

}  // namespace tfpe::io
