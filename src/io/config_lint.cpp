#include "io/config_lint.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include "analysis/consistency.hpp"
#include "core/inference_estimate.hpp"
#include "hw/topology.hpp"
#include "io/config_file.hpp"
#include "io/schema.hpp"

namespace tfpe::io {

namespace {

using analysis::DiagnosticSink;
using analysis::RuleId;

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
      const Schema* schema = find_schema(name);
      if (!schema) {
        sink_.emit(RuleId::kConfigUnknownSection, "[" + name + "]", 0, 0,
                   "no loader consumes section [" + name + "]", std::nullopt,
                   file_, section_line(name));
        continue;
      }
      // Every row's problem at its key; a section whose only problems are
      // unknown keys still loads without them for the passes below.
      Section known = section;
      bool loads = true;
      for (const Problem& p : schema->problems(section)) {
        emit(p.rule, name, p.key, p.expected, p.actual, p.message);
        known.erase(p.key);
        loads = loads && p.rule == RuleId::kConfigUnknownKey;
      }
      if (loads) loadable_[name] = known;
    }

    const auto mdl = load("model", model_from_section);
    auto sys = load("system", system_from_section);
    const auto topo = load("topology", topology_from_section);
    if (sys) {
      if (topo) sys->fabric = *topo;
      sink_.merge(with_location(analysis::lint_system(*sys, opts_),
                                section_line("system")));
    }
    if (topo) {
      sink_.merge(with_location(
          analysis::lint_topology(*topo, sys ? sys->n_gpus : 0, opts_),
          section_line("topology")));
    }
    // TFPE-CODESIGN-003: the options enumerate no shape around [model].
    const auto family = load("codesign", codesign_from_section);
    if (family && mdl && model::shape_family(*mdl, *family).empty()) {
      emit(RuleId::kCodesignEmptyFamily, "codesign", "", 1, 0,
           "[codesign] enumerates zero shapes around " + mdl->name +
               "'s parameter budget — widen the axes, the aspect window or "
               "the tolerance");
    }
    if (const auto spec = load("serving", serving_from_section)) {
      if (mdl && sys) lint_serving(*mdl, *sys, *spec);
    }
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
  /// The record `name` loads to, when its section is present and every
  /// row reads.
  template <class Load>
  auto load(const std::string& name, Load loader) const
      -> std::optional<decltype(loader(Section{}))> {
    const auto it = loadable_.find(name);
    if (it == loadable_.end()) return std::nullopt;
    return loader(it->second);
  }

  void emit(RuleId rule, const std::string& section, const std::string& key,
            double expected, double actual, const std::string& message) {
    const int at = key.empty() ? 0 : key_line(section, key);
    const std::string op =
        key.empty() ? "[" + section + "]" : "[" + section + "] " + key;
    sink_.emit(rule, op, expected, actual, message, std::nullopt, file_,
               at > 0 ? at : section_line(section));
  }

  /// [serving] feasibility screens over a sound section, [model] and
  /// [system]: no (tp, pp) shape whose KV budget admits even one resident
  /// request at batch = 1 is an error (TFPE-SERVE-001), and a requested
  /// batch beyond what the best shape can keep resident is a warning
  /// (TFPE-SERVE-002) — the scheduler would silently clip it.
  void lint_serving(const model::TransformerConfig& mdl,
                    const hw::SystemConfig& sys,
                    const core::ServingSpec& spec) {
    try {
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
      // A grid the estimator rejects is reported by serve-plan itself.
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
  std::map<std::string, Section> loadable_;  ///< Sections that load.
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
