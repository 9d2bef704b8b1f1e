// tfpe — command-line front end to the performance model.
//
// Examples:
//   tfpe --model gpt3-1t --gpu b200 --gpus 16384 --nvs 8 --batch 4096
//   tfpe --model vit-64k --gpu a100 --gpus 4096 --strategy 2d --top 5
//   tfpe --model llama3-405b --gpu b200 --gpus 2048 --strategy summa
//        --interleave --zero3 --csv out.csv --ops --sensitivity
//   tfpe --model custom --l 4096 --e 8192 --heads 64 --depth 32
//        --gpu h200 --gpus 512
//
// Prints the optimal configuration panel, optionally the top-k list, the
// per-op roofline report, hardware elasticities, and a CSV mirror.

#include <fstream>
#include <iostream>

#include <chrono>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/training_estimate.hpp"
#include "io/config_file.hpp"
#include "io/config_lint.hpp"
#include "io/plan_io.hpp"
#include "search/codesign.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep_lint.hpp"
#include "report/breakdown_report.hpp"
#include "report/markdown_report.hpp"
#include "report/op_report.hpp"
#include "report/sensitivity.hpp"
#include "search/search.hpp"
#include "util/args.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace tfpe;

int usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: tfpe --model NAME --gpu {a100|h200|b200} --gpus N [options]\n"
      "\n"
      "model selection:\n"
      "  --model NAME        one of:";
  for (const auto& n : model::preset_names()) std::cerr << " " << n;
  std::cerr <<
      " | custom\n"
      "  --l --e --heads --depth [--hidden --kv-heads --window]   (custom)\n"
      "  --config PATH       load [model] and/or [system] from a file\n"
      "\n"
      "system:\n"
      "  --gpu GEN           GPU generation preset (default b200)\n"
      "  --gpus N            total GPUs (default 1024)\n"
      "  --nvs N             fast-domain size (default 8)\n"
      "\n"
      "search:\n"
      "  --strategy S        1d | 2d | summa | all (default 1d)\n"
      "  --batch B           global batch (default 4096)\n"
      "  --top K             also print the K best configurations\n"
      "  --interleave        allow interleaved pipeline schedules\n"
      "  --zero3             allow ZeRO-3 weight sharding\n"
      "  --tp-overlap F      hide fraction F of TP communication\n"
      "  --offload F         offload fraction F of activations to host\n"
      "  --recompute         full activation checkpointing\n"
      "  --plan PATH         evaluate a saved plan instead of searching\n"
      "  --save-plan PATH    write the best configuration as a plan file\n"
      "\n"
      "output:\n"
      "  --rate USD          $/GPU-hour for cost estimates (with --tokens/--samples)\n"
      "  --tokens T          report days to train on T tokens\n"
      "  --samples S         report days to train on S samples\n"
      "  --ops               per-op roofline report for the optimum\n"
      "  --sensitivity       hardware elasticities (re-searches 12 designs)\n"
      "  --csv PATH          write results as CSV\n"
      "  --markdown PATH     write a Markdown report\n"
      "\n"
      "subcommands:\n"
      "  lint [PLAN_PATH]    check built op lists against the paper's\n"
      "                      conservation laws (see: tfpe lint --help)\n"
      "  codesign            iso-parameter architecture x config search\n"
      "                      (see: tfpe codesign --help)\n"
      "  serve-plan          latency/throughput Pareto front for inference\n"
      "                      serving (see: tfpe serve-plan --help)\n";
  return msg ? 2 : 0;
}

std::optional<hw::GpuGeneration> gen_by_name(const std::string& s) {
  if (s == "a100") return hw::GpuGeneration::A100;
  if (s == "h200") return hw::GpuGeneration::H200;
  if (s == "b200") return hw::GpuGeneration::B200;
  return std::nullopt;
}

// --- `tfpe lint`: op-graph invariant analyzer front end -------------------

int lint_usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: tfpe lint [PATH] [--model NAME] [--batch N]\n"
      "                 [--format text|json|sarif] [--strict]\n"
      "                 [--suppress CODE,...]\n"
      "\n"
      "Structured diagnostics over the whole pipeline: the paper's op-graph\n"
      "conservation laws, the compiled-signature and batched-SoA lowerings,\n"
      "sweep cache-key soundness, hardware-description sanity and config-file\n"
      "schema checks. Every diagnostic carries a stable rule ID\n"
      "(TFPE-OP-001 ...; see docs/API.md for the registry).\n"
      "\n"
      "  PATH            lint a .tfpe file: schema first, then the passes its\n"
      "                  sections select ([plan] -> op graph + signature +\n"
      "                  batched lowering, [sweep] -> sweep plan,\n"
      "                  [model]/[system]/[topology] -> machine description)\n"
      "  --model NAME    model preset a [plan] applies to (default gpt3-1t)\n"
      "  --batch N       global batch for the plan (default: the plan's own);\n"
      "                  with no PATH, the per-GPU microbatch (default 2)\n"
      "  --format F      text (default) | json | sarif (SARIF 2.1.0)\n"
      "  --strict        warnings also fail (exit 3)\n"
      "  --suppress L    comma-separated rule codes or names to disable\n"
      "\n"
      "With no PATH, lints the built-in preset x strategy matrix plus the\n"
      "default sweep plan. Exit codes: 0 clean, 1 errors, 2 usage or\n"
      "unparseable input, 3 warnings under --strict.\n";
  return msg ? 2 : 0;
}

/// Render `report` in the requested format and map it to the exit code
/// contract (0 clean / 1 errors / 3 strict warnings).
int finish_lint(const analysis::LintReport& report, const std::string& format,
                bool strict) {
  if (format == "json") {
    std::cout << analysis::render_json(report) << "\n";
  } else if (format == "sarif") {
    std::cout << analysis::render_sarif(report) << "\n";
  } else {
    std::cout << analysis::render_text(report) << "\n";
  }
  if (report.errors() > 0) return 1;
  if (strict && report.warnings() > 0) return 3;
  return 0;
}

/// Parse --format/--strict/--suppress into (format, strict, LintOptions).
/// Returns false (after printing usage) on a bad flag value.
bool parse_lint_flags(const util::ArgParser& args, std::string* format,
                      bool* strict, analysis::LintOptions* opts) {
  *format = args.get_or("format", "text");
  if (*format != "text" && *format != "json" && *format != "sarif") {
    lint_usage(("unknown --format '" + *format + "'").c_str());
    return false;
  }
  *strict = args.has("strict");
  if (const auto list = args.get("suppress")) {
    for (const std::string& code : util::split_list(*list)) {
      if (!opts->rules.suppress(code)) {
        lint_usage(("unknown rule '" + code + "' in --suppress").c_str());
        return false;
      }
    }
  }
  return true;
}

parallel::ParallelConfig lint_cfg(parallel::TpStrategy s, std::int64_t n1,
                                  std::int64_t n2, std::int64_t nb = 1,
                                  bool ring = false) {
  parallel::ParallelConfig c;
  c.strategy = s;
  c.n1 = n1;
  c.n2 = n2;
  c.nb = nb;
  c.ring_attention = ring;
  return c;
}

/// Lint one .tfpe file: schema first, then the passes its sections select.
int lint_file(const std::string& path, const util::ArgParser& args,
              const std::string& format, bool strict,
              const analysis::LintOptions& opts) {
  const std::string model_name = args.get_or("model", "gpt3-1t");
  const auto mdl = model::preset_by_name(model_name);
  if (!mdl) return lint_usage(("unknown model '" + model_name + "'").c_str());

  analysis::DiagnosticSink sink(opts.rules);
  const analysis::LintReport schema = io::lint_config_file(path, opts);
  bool unparseable = false;
  for (const auto& d : schema.diagnostics) {
    if (d.id == analysis::RuleId::kConfigParse) unparseable = true;
  }
  sink.merge(schema);
  if (unparseable) {
    // A file that does not parse at all is a usage-level failure: render
    // the report (it carries the parse diagnostic) and exit 2, never the
    // old empty-but-clean 0.
    finish_lint(sink.take(), format, strict);
    return 2;
  }

  io::ConfigSections sections;
  {
    std::ifstream in(path);
    sections = io::parse_config(in);  // schema pass proved this parses
  }
  const auto fail_section = [&](const std::string& section,
                                const std::string& what) {
    sink.emit(analysis::RuleId::kConfigValue, "[" + section + "]", 0, 0, what,
              std::nullopt, path, 0);
  };

  std::int64_t batch = args.get_int_or("batch", 0);
  if (const auto it = sections.find("plan"); it != sections.end()) {
    try {
      const io::LoadedPlan plan = io::plan_from_section(it->second);
      if (batch == 0) batch = plan.global_batch;
      // Divisibility prechecks against a system just big enough for the
      // plan: the builders assume them, so a violated one is a diagnostic.
      const auto sys = hw::make_system(hw::GpuGeneration::B200,
                                       plan.cfg.placement_product(),
                                       plan.cfg.total_gpus());
      if (const auto why = plan.cfg.invalid_reason(*mdl, sys, batch)) {
        fail_section("plan", "invalid plan configuration: " + *why);
      } else {
        const std::int64_t b = plan.cfg.local_microbatch(batch);
        const parallel::LayerCost layer =
            parallel::build_layer(*mdl, plan.cfg, b);
        sink.merge(analysis::lint_layer(*mdl, plan.cfg, b, layer, opts));
        const core::CostSignature sig =
            core::compile_signature(*mdl, plan.cfg, batch, layer);
        sink.merge(analysis::lint_signature(*mdl, plan.cfg, sig, layer, opts));
        sink.merge(analysis::lint_batched(sig, core::lower_batched(sig), opts));
        sink.merge(analysis::lint_system(sys, sig, opts));
        const hw::Topology fab = sys.resolved_fabric();
        const parallel::ParallelConfig& c = plan.cfg;
        for (const comm::GroupPlacement g :
             {comm::GroupPlacement{c.n1, c.nvs1},
              comm::GroupPlacement{c.n2, c.nvs2},
              comm::GroupPlacement{c.np, c.nvsp},
              comm::GroupPlacement{c.nd, c.nvsd}}) {
          sink.merge(analysis::lint_placement(fab, g, opts));
        }
      }
    } catch (const std::exception& e) {
      fail_section("plan", e.what());
    }
  }

  if (const auto it = sections.find("sweep"); it != sections.end()) {
    try {
      const io::Section& spec = it->second;
      const auto axis = [&](const char* key, const char* fallback) {
        const auto found = spec.find(key);
        return util::split_list(found != spec.end() ? found->second
                                                    : fallback);
      };
      std::vector<hw::GpuGeneration> gens;
      for (const auto& name : axis("gpu", "b200")) {
        if (const auto gen = gen_by_name(name)) gens.push_back(*gen);
      }
      std::vector<std::int64_t> nvs;
      for (const auto& v : axis("nvs", "8")) nvs.push_back(std::stoll(v));
      std::vector<double> oversub;
      for (const auto& v : axis("oversub", "1")) {
        oversub.push_back(std::stod(v));
      }
      const auto leaf_it = spec.find("leaf");
      const std::int64_t leaf =
          leaf_it != spec.end() ? std::stoll(leaf_it->second) : 64;
      std::vector<hw::SystemConfig> points;
      for (const auto& v : axis("gpus", "1024")) {
        const auto grid = search::hardware_grid(gens, nvs, oversub,
                                                std::stoll(v), leaf);
        points.insert(points.end(), grid.begin(), grid.end());
      }
      const auto model_axis = axis("model", "gpt3-1t");
      const auto sweep_mdl = model::preset_by_name(
          model_axis.empty() ? "gpt3-1t" : model_axis.front());
      sink.merge(search::lint_sweep_plan(sweep_mdl ? *sweep_mdl : *mdl,
                                         points, search::SweepOptions{},
                                         opts));
    } catch (const std::exception& e) {
      fail_section("sweep", e.what());
    }
  }

  if (!sections.count("plan") && !sections.count("sweep") &&
      !sections.count("model") && !sections.count("system") &&
      !sections.count("topology")) {
    sink.emit(analysis::RuleId::kConfigMissingKey, "<file>", 0, 0,
              "no [plan], [sweep], [model], [system] or [topology] section "
              "to lint",
              std::nullopt, path, 0);
  }

  if (format == "text") {
    std::cout << "lint " << path << "\n";
  }
  return finish_lint(sink.take(), format, strict);
}

int run_lint(const util::ArgParser& args) {
  if (args.has("help")) return lint_usage(nullptr);
  const auto& pos = args.positional();
  if (pos.size() > 2) return lint_usage("too many arguments");

  std::string format;
  bool strict = false;
  analysis::LintOptions opts;
  if (!parse_lint_flags(args, &format, &strict, &opts)) return 2;

  // --strict takes no value, but the parser's "--flag value" rule swallows
  // a following PATH operand into it ("lint --strict plan.tfpe") — reclaim
  // it so flag order never changes which artifact gets linted.
  std::string path = pos.size() == 2 ? pos[1] : "";
  if (const auto v = args.get("strict"); v && !v->empty()) {
    if (!path.empty()) return lint_usage("too many arguments");
    path = *v;
  }

  if (!path.empty()) {
    const int rc = lint_file(path, args, format, strict, opts);
    const auto stray = args.unused();
    if (!stray.empty()) {
      return lint_usage(("unknown flag --" + stray.front()).c_str());
    }
    return rc;
  }

  // No file: lint the preset x strategy matrix (op graph + signature +
  // batched lowering per case), the default system and the default sweep
  // plan, aggregated into one report.
  const std::int64_t b = args.get_int_or("batch", 2);
  const auto stray = args.unused();
  if (!stray.empty()) {
    return lint_usage(("unknown flag --" + stray.front()).c_str());
  }
  if (b < 1) return lint_usage("--batch must be >= 1");

  using parallel::TpStrategy;
  struct Case {
    model::TransformerConfig mdl;
    std::string label;
    parallel::ParallelConfig cfg;
  };
  std::vector<Case> cases;
  for (const auto& mdl : {model::gpt3_1t(), model::vit_64k()}) {
    cases.push_back({mdl, "1d", lint_cfg(TpStrategy::TP1D, 8, 1)});
    cases.push_back({mdl, "2d", lint_cfg(TpStrategy::TP2D, 8, 2)});
    cases.push_back({mdl, "summa", lint_cfg(TpStrategy::Summa2D, 4, 4, 4)});
    cases.push_back(
        {mdl, "2d+ring", lint_cfg(TpStrategy::TP2D, 8, 2, 1, true)});
  }
  cases.push_back({model::gpt_moe_1t(), "1d", lint_cfg(TpStrategy::TP1D, 8, 1)});
  cases.push_back({model::gpt_moe_1t(), "2d", lint_cfg(TpStrategy::TP2D, 8, 2)});

  analysis::DiagnosticSink sink(opts.rules);
  const bool text = format == "text";
  for (const auto& c : cases) {
    analysis::LintReport report;
    try {
      const parallel::LayerCost layer = parallel::build_layer(c.mdl, c.cfg, b);
      analysis::DiagnosticSink case_sink(opts.rules);
      case_sink.merge(analysis::lint_layer(c.mdl, c.cfg, b, layer, opts));
      // The matrix configs use nd = m = 1, so global batch == microbatch.
      const core::CostSignature sig =
          core::compile_signature(c.mdl, c.cfg, b, layer);
      case_sink.merge(analysis::lint_signature(c.mdl, c.cfg, sig, layer, opts));
      case_sink.merge(analysis::lint_batched(sig, core::lower_batched(sig), opts));
      report = case_sink.take();
    } catch (const std::exception& e) {
      analysis::DiagnosticSink fail(opts.rules);
      fail.emit(analysis::RuleId::kOpSequence, "<layer>", 0, 0,
                std::string("cannot build layer: ") + e.what());
      report = fail.take();
    }
    if (text) {
      std::cout << (report.errors() > 0 ? "FAIL  " : "ok    ") << c.mdl.name
                << " x " << c.label << "\n";
      if (!report.clean()) std::cout << report.summary() << "\n";
    }
    sink.merge(std::move(report));
  }

  // Default machine description + sweep plan, so the SYS/TOPO/SWEEP rule
  // families run on every bare `tfpe lint`.
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 1024);
  sink.merge(analysis::lint_system(sys, opts));
  sink.merge(search::lint_sweep_plan(model::gpt3_1t(), {sys},
                                     search::SweepOptions{}, opts));

  if (text) std::cout << cases.size() << " op lists linted\n";
  return finish_lint(sink.take(), format, strict);
}

// --- `tfpe codesign`: architecture x configuration co-design search -------

int codesign_usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: tfpe codesign [--model NAME | --config PATH] [options]\n"
      "\n"
      "Enumerates every transformer shape within a tolerance of the base\n"
      "model's parameter budget ([codesign] axes in the config file, or the\n"
      "defaults), crosses the family with a gpu x nvs hardware grid and\n"
      "reports, per grid point, the winning (shape, parallelization,\n"
      "placement) triple. Every reported result is bitwise identical to\n"
      "find_optimal on that (shape, point); shapes whose architecture-level\n"
      "compute floor exceeds the cross-shape incumbent are pruned whole.\n"
      "\n"
      "  --model NAME        base preset the family is iso to (default gpt3-1t)\n"
      "  --config PATH       load [model] and/or [codesign] from a file\n"
      "  --target-params B   override the parameter budget [billions]\n"
      "  --tolerance F       override the relative band (default 0.02)\n"
      "  --gpu LIST          generations to grid (default a100,h200,b200)\n"
      "  --nvs LIST          NVS-domain sizes to grid (default 8)\n"
      "  --gpus N            total GPUs (default 1024)\n"
      "  --batch B           global batch (default 4096)\n"
      "  --threads N         worker threads (0 = hardware concurrency)\n"
      "  --no-prune-shapes   keep the full exact per-shape matrix\n"
      "  --no-warm-start     cold incumbents (A/B baseline)\n"
      "  --verify-per-shape  cross-check every scanned (shape, point) and\n"
      "                      winner bitwise against per-shape find_optimal;\n"
      "                      exits nonzero on any mismatch\n"
      "  --csv PATH          write per-point winners as CSV\n";
  return msg ? 2 : 0;
}

int run_codesign_cmd(const util::ArgParser& args) {
  if (args.has("help")) return codesign_usage(nullptr);

  io::LoadedConfig file_cfg;
  if (const auto path = args.get("config")) {
    try {
      file_cfg = io::load_config_file(*path);
    } catch (const std::exception& e) {
      return codesign_usage(e.what());
    }
  }
  model::TransformerConfig base;
  const std::string model_name =
      args.get_or("model", file_cfg.model ? "from-config" : "gpt3-1t");
  if (model_name == "from-config") {
    base = *file_cfg.model;
  } else if (const auto preset = model::preset_by_name(model_name)) {
    base = *preset;
  } else {
    return codesign_usage(("unknown model '" + model_name + "'").c_str());
  }

  model::ShapeFamilyOptions fam =
      file_cfg.codesign ? *file_cfg.codesign : model::ShapeFamilyOptions{};
  std::vector<hw::GpuGeneration> gens;
  for (const auto& name :
       util::split_list(args.get_or("gpu", "a100,h200,b200"))) {
    const auto gen = gen_by_name(name);
    if (!gen) return codesign_usage(("unknown gpu '" + name + "'").c_str());
    gens.push_back(*gen);
  }
  std::vector<std::int64_t> nvs;
  for (const auto& v : util::split_list(args.get_or("nvs", "8"))) {
    char* end = nullptr;
    const std::int64_t domain = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0' || domain < 1) {
      return codesign_usage(
          ("flag --nvs expects positive integers, got '" + v + "'").c_str());
    }
    nvs.push_back(domain);
  }
  std::int64_t n_gpus = 0;
  std::int64_t threads = 0;
  search::CodesignOptions opts;
  try {
    if (args.has("target-params")) {
      fam.target_params = static_cast<std::int64_t>(
          args.get_double_or("target-params", 0.0) * 1e9);
    }
    fam.tolerance = args.get_double_or("tolerance", fam.tolerance);
    n_gpus = args.get_int_or("gpus", 1024);
    opts.sweep.search.global_batch = args.get_int_or("batch", 4096);
    threads = args.get_int_or("threads", 0);
  } catch (const std::exception& e) {
    return codesign_usage(e.what());
  }
  if (threads < 0) return codesign_usage("--threads must be >= 0");
  opts.sweep.threads = static_cast<unsigned>(threads);
  opts.sweep.warm_start = !args.has("no-warm-start");
  opts.prune_shapes = !args.has("no-prune-shapes");
  const bool verify = args.has("verify-per-shape");
  const std::string csv = args.get_or("csv", "");

  const auto stray = args.unused();
  if (!stray.empty()) {
    return codesign_usage(("unknown flag --" + stray.front()).c_str());
  }

  std::vector<model::TransformerConfig> shapes;
  try {
    shapes = model::shape_family(base, fam);
  } catch (const std::exception& e) {
    return codesign_usage(e.what());
  }
  const std::int64_t target =
      fam.target_params > 0 ? fam.target_params : base.total_params();
  std::cout << "Family: " << shapes.size() << " shapes iso to "
            << util::format_fixed(static_cast<double>(target) / 1e9, 1)
            << "B params (+/-"
            << util::format_fixed(100.0 * fam.tolerance, 1) << "%) around "
            << base.name << "\n";
  if (shapes.empty()) {
    std::cerr << "empty shape family — widen the axes or the tolerance\n";
    return 1;
  }
  const auto points = search::hardware_grid(gens, nvs, n_gpus);
  std::cout << "Grid:   " << points.size() << " hardware points x "
            << shapes.size() << " shapes, batch "
            << opts.sweep.search.global_batch << ", " << n_gpus << " GPUs\n\n";

  const auto t0 = std::chrono::steady_clock::now();
  search::CodesignResult run;
  try {
    run = search::run_codesign(shapes, points, opts);
  } catch (const std::exception& e) {
    return codesign_usage(e.what());
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<report::LabeledResult> rows;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const auto& w = run.best[p];
    const std::string label = points[p].gpu.name + " nvs" +
                              std::to_string(points[p].nvs_domain);
    if (w.shape == search::CodesignResult::kNoShape) {
      std::cout << label << ": no feasible shape\n";
      continue;
    }
    std::cout << label << ": " << shapes[w.shape].name << " — "
              << util::format_time(w.best.iteration()) << "/iteration, "
              << w.best.cfg.describe() << "\n";
    rows.push_back({label + " " + shapes[w.shape].name, w.best});
  }

  const auto& st = run.stats;
  std::printf(
      "\n%zu shape-points: %zu floor-pruned, %zu scanned (%zu feasible)  "
      "%.3fs  %.1f shape-points/s\n",
      st.shapes * st.points, st.shapes_pruned, st.shapes_evaluated,
      st.feasible_shape_points, seconds,
      seconds > 0 ? static_cast<double>(st.shapes * st.points) / seconds : 0.0);
  std::printf(
      "enumerations=%zu (%zu memo hits)  candidates=%zu  evaluated=%zu  "
      "bound-pruned=%zu  placement-floor-pruned=%zu  warm-seeds=%zu/%zu\n",
      st.enumerations, st.enumeration_hits, st.candidates, st.evaluated,
      st.bound_pruned, st.placement_floor_pruned, st.warm_seed_feasible,
      st.warm_seeded);

  if (verify) {
    // Legacy-style cross-check: one find_optimal per (shape, point), the
    // winner re-derived by the same shape-order reduction. Every scanned
    // matrix entry and every winner must match bitwise.
    std::size_t mismatches = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      core::EvalResult ref;
      std::size_t ref_shape = search::CodesignResult::kNoShape;
      for (std::size_t s = 0; s < shapes.size(); ++s) {
        search::SearchOptions per_point = opts.sweep.search;
        per_point.threads = opts.sweep.threads;
        const auto direct =
            search::find_optimal(shapes[s], points[p], per_point);
        if (search::better_result(direct.best, ref)) {
          ref = direct.best;
          ref_shape = s;
        }
        if (run.pruned[s][p]) continue;
        if (!search::same_optimum(direct.best, run.per_shape[s][p])) {
          ++mismatches;
          std::cerr << "MISMATCH at " << shapes[s].name << " x "
                    << points[p].gpu.name << " nvs" << points[p].nvs_domain
                    << "\n";
        }
      }
      const auto& w = run.best[p];
      if (ref_shape != w.shape || !search::same_optimum(ref, w.best)) {
        ++mismatches;
        std::cerr << "WINNER MISMATCH at " << points[p].gpu.name << " nvs"
                  << points[p].nvs_domain << "\n";
      }
    }
    if (mismatches != 0) {
      std::cerr << mismatches
                << " results differ from per-shape find_optimal\n";
      return 1;
    }
    std::cout << "verify-per-shape: all scanned results and winners bitwise "
                 "identical to find_optimal\n";
  }

  if (!csv.empty()) {
    report::write_results_csv(csv, rows);
    std::cout << "CSV written to " << csv << "\n";
  }
  return 0;
}

// --- `tfpe serve-plan`: inference latency/throughput Pareto search --------

int serve_usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n\n";
  std::cerr <<
      "usage: tfpe serve-plan [--model NAME | --config PATH] [options]\n"
      "\n"
      "Sweeps serving replica shapes (tensor x pipeline parallelism x\n"
      "resident batch) for a decode workload under a continuous-batching\n"
      "scheduler and prints the latency/throughput Pareto front: the shapes\n"
      "no other shape beats on both request latency and tok/s/GPU. Every\n"
      "point holds its KV cache resident under the HBM cap ([serving]\n"
      "kv_cap_fraction); the requested batch is clipped to what fits.\n"
      "\n"
      "  --model NAME        model preset (default llama3-405b)\n"
      "  --config PATH       load [model]/[system]/[serving] from a file\n"
      "  --gpu GEN           GPU generation preset (default h200)\n"
      "  --nvs N             fast-domain size (default 8)\n"
      "  --gpus N            total GPUs, for the replica-count line (default\n"
      "                      one replica's worth)\n"
      "  --prompt N          input tokens per request (default 2048)\n"
      "  --output N          generated tokens per request (default 256)\n"
      "  --tp LIST           tensor-parallel widths (default 1,2,4,8)\n"
      "  --pp LIST           pipeline depths (default 1)\n"
      "  --batch LIST        requested batches (default 1,...,256)\n"
      "  --kv-cap F          HBM fraction for KV + weights (default 0.9)\n"
      "  --all               print every feasible point, not just the front\n"
      "  --csv PATH          write the evaluated grid as CSV\n";
  return msg ? 2 : 0;
}

/// One printed row of the serve-plan table.
void print_serve_row(const core::InferenceEstimate& e, bool on_front) {
  std::printf("%s tp%-2lld pp%-2lld batch %-4lld R=%-4lld  "
              "ttft %8s  tpot %8s  %8.1f tok/s/gpu  %5.1f%% prefill  "
              "kv %5.1f GB\n",
              on_front ? "*" : " ", static_cast<long long>(e.cfg.tp),
              static_cast<long long>(e.cfg.pp),
              static_cast<long long>(e.cfg.batch),
              static_cast<long long>(e.admitted_batch),
              util::format_time(e.ttft).c_str(),
              util::format_time(e.tpot).c_str(), e.tokens_per_sec_per_gpu,
              100.0 * e.prefill_fraction, e.mem.kv_cache.value() / 1e9);
}

int run_serve_plan_cmd(const util::ArgParser& args) {
  if (args.has("help")) return serve_usage(nullptr);

  io::LoadedConfig file_cfg;
  if (const auto path = args.get("config")) {
    try {
      file_cfg = io::load_config_file(*path);
    } catch (const std::exception& e) {
      return serve_usage(e.what());
    }
  }
  model::TransformerConfig mdl;
  const std::string model_name =
      args.get_or("model", file_cfg.model ? "from-config" : "llama3-405b");
  if (model_name == "from-config") {
    mdl = *file_cfg.model;
  } else if (const auto preset = model::preset_by_name(model_name)) {
    mdl = *preset;
  } else {
    return serve_usage(("unknown model '" + model_name + "'").c_str());
  }

  hw::SystemConfig sys;
  if (file_cfg.system) {
    sys = *file_cfg.system;
  } else {
    sys = hw::make_system(hw::GpuGeneration::H200, 8, 8);
  }
  if (const auto name = args.get("gpu")) {
    const auto gen = gen_by_name(*name);
    if (!gen) return serve_usage("unknown --gpu (a100|h200|b200)");
    const auto fresh = hw::make_system(*gen, sys.nvs_domain, sys.n_gpus);
    sys.gpu = fresh.gpu;
    sys.net = fresh.net;
  }
  if (args.has("nvs")) sys.nvs_domain = args.get_int_or("nvs", sys.nvs_domain);
  if (args.has("gpus")) sys.n_gpus = args.get_int_or("gpus", sys.n_gpus);

  core::ServingSpec spec =
      file_cfg.serving ? *file_cfg.serving : core::ServingSpec{};
  if (args.has("prompt")) {
    spec.prompt_len = args.get_int_or("prompt", spec.prompt_len);
  }
  if (args.has("output")) {
    spec.output_len = args.get_int_or("output", spec.output_len);
  }
  const auto int_list_flag = [&](const char* flag,
                                 std::vector<std::int64_t>& axis) -> bool {
    const auto v = args.get(flag);
    if (!v) return true;
    axis.clear();
    for (const auto& item : util::split_list(*v)) {
      try {
        axis.push_back(std::stoll(item));
      } catch (const std::exception&) {
        return false;
      }
      if (axis.back() < 1) return false;
    }
    return !axis.empty();
  };
  if (!int_list_flag("tp", spec.tp)) {
    return serve_usage("--tp needs positive integers");
  }
  if (!int_list_flag("pp", spec.pp)) {
    return serve_usage("--pp needs positive integers");
  }
  if (!int_list_flag("batch", spec.batch)) {
    return serve_usage("--batch needs positive integers");
  }
  if (args.has("kv-cap")) {
    spec.kv_cap_fraction = args.get_double_or("kv-cap", spec.kv_cap_fraction);
    if (!(spec.kv_cap_fraction > 0.0) || spec.kv_cap_fraction > 1.0) {
      return serve_usage("--kv-cap must lie in (0, 1]");
    }
  }
  const bool show_all = args.has("all");
  const std::string csv = args.get_or("csv", "");
  const auto stray = args.unused();
  if (!stray.empty()) {
    return serve_usage(("unknown flag --" + stray.front()).c_str());
  }

  std::cout << "Serving " << mdl.name << " on " << sys.gpu.name << " nvs"
            << sys.nvs_domain << ": prompt " << spec.prompt_len << " + "
            << spec.output_len << " output tokens, KV cap "
            << util::format_fixed(100.0 * spec.kv_cap_fraction, 0)
            << "% of HBM\n\n";

  search::ServePlanOptions opts;
  opts.spec = spec;
  search::ServePlanResult run;
  try {
    run = search::run_serve_plan(mdl, sys, opts);
  } catch (const std::exception& e) {
    return serve_usage(e.what());
  }

  // Re-assert the KV-residency contract on every point we are about to
  // report: the estimator must have kept weights + activations + R
  // reservations inside HBM and inside the cap. A violation is a bug, not
  // a user error — fail loudly.
  std::size_t violations = 0;
  for (const auto& e : run.points) {
    if (!e.feasible) continue;
    const double hbm = sys.gpu.hbm_capacity.value();
    const bool resident = e.mem.total().value() <= hbm &&
                          e.mem.kv_cache.value() <=
                              spec.kv_cap_fraction * hbm &&
                          e.admitted_batch >= 1 &&
                          e.admitted_batch <= e.cfg.batch;
    if (!resident) {
      ++violations;
      std::cerr << "KV residency violated at tp" << e.cfg.tp << " pp"
                << e.cfg.pp << " batch " << e.cfg.batch << "\n";
    }
  }
  if (violations != 0) {
    std::cerr << violations << " reported points violate KV residency\n";
    return 1;
  }

  std::vector<bool> on_front(run.points.size(), false);
  for (const std::size_t i : run.front) on_front[i] = true;
  const auto write_csv = [&] {
    if (csv.empty()) return;
    std::ofstream out(csv);
    out << "tp,pp,batch,admitted,feasible,on_front,ttft_s,tpot_s,"
           "request_latency_s,tok_s,tok_s_gpu,prefill_fraction,kv_gb,"
           "total_gb,decode_floor_s,reason\n";
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      const auto& e = run.points[i];
      out << e.cfg.tp << ',' << e.cfg.pp << ',' << e.cfg.batch << ','
          << e.admitted_batch << ',' << (e.feasible ? 1 : 0) << ','
          << (on_front[i] ? 1 : 0) << ',' << e.ttft << ',' << e.tpot << ','
          << e.request_latency << ',' << e.tokens_per_sec << ','
          << e.tokens_per_sec_per_gpu << ',' << e.prefill_fraction << ','
          << e.mem.kv_cache.value() / 1e9 << ','
          << e.mem.total().value() / 1e9 << ',' << e.decode_floor << ",\""
          << e.reason << "\"\n";
    }
    std::cout << "CSV written to " << csv << "\n";
  };
  if (show_all) {
    for (std::size_t i = 0; i < run.points.size(); ++i) {
      if (run.points[i].feasible) print_serve_row(run.points[i], on_front[i]);
    }
  } else {
    for (const std::size_t i : run.front) {
      print_serve_row(run.points[i], true);
    }
  }
  if (run.front.empty()) {
    write_csv();
    std::cerr << "no feasible serving shape — the KV budget admits no "
                 "resident request on this system\n";
    return 1;
  }
  const auto& fastest = run.points[run.front.front()];
  const auto& densest = run.points[run.front.back()];
  const std::int64_t replicas =
      std::max<std::int64_t>(1, sys.n_gpus / (densest.cfg.tp *
                                              densest.cfg.pp));
  std::printf(
      "\n%zu/%zu grid points feasible, %zu on the front "
      "(%zu prefill lowerings, %zu cache hits)\n",
      run.stats.feasible, run.stats.evaluated, run.front.size(),
      run.stats.signature_compiles, run.stats.signature_reuses);
  std::printf(
      "fastest: tp%lld pp%lld @ %s/request   densest: tp%lld pp%lld @ %.1f "
      "tok/s/gpu (%lld replicas -> %.0f tok/s)\n",
      static_cast<long long>(fastest.cfg.tp),
      static_cast<long long>(fastest.cfg.pp),
      util::format_time(fastest.request_latency).c_str(),
      static_cast<long long>(densest.cfg.tp),
      static_cast<long long>(densest.cfg.pp),
      densest.tokens_per_sec_per_gpu, static_cast<long long>(replicas),
      densest.tokens_per_sec * static_cast<double>(replicas));

  write_csv();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (!args.positional().empty() && args.positional().front() == "lint") {
    return run_lint(args);
  }
  if (!args.positional().empty() && args.positional().front() == "codesign") {
    return run_codesign_cmd(args);
  }
  if (!args.positional().empty() &&
      args.positional().front() == "serve-plan") {
    return run_serve_plan_cmd(args);
  }
  if (args.has("help")) return usage(nullptr);

  // --- config file (flags still override the GPU-count style fields) ---
  io::LoadedConfig file_cfg;
  if (const auto path = args.get("config")) {
    try {
      file_cfg = io::load_config_file(*path);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }

  // --- model ---
  const std::string model_name =
      args.get_or("model", file_cfg.model ? "from-config" : "gpt3-1t");
  model::TransformerConfig mdl;
  if (model_name == "from-config") {
    mdl = *file_cfg.model;
  } else if (model_name == "custom") {
    mdl.name = "custom";
    mdl.seq_len = args.get_int_or("l", 0);
    mdl.embed = args.get_int_or("e", 0);
    mdl.heads = args.get_int_or("heads", 0);
    mdl.depth = args.get_int_or("depth", 0);
    mdl.hidden = args.get_int_or("hidden", 4 * mdl.embed);
    mdl.kv_heads = args.get_int_or("kv-heads", 0);
    if (args.has("window")) {
      mdl.attention = model::AttentionKind::kWindowed;
      mdl.window = args.get_int_or("window", 0);
    }
    try {
      mdl.validate();
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  } else if (auto preset = model::preset_by_name(model_name)) {
    mdl = *preset;
  } else {
    return usage(("unknown model '" + model_name + "'").c_str());
  }

  // --- system ---
  hw::SystemConfig sys;
  if (file_cfg.system) {
    sys = *file_cfg.system;
    if (args.has("gpus")) sys.n_gpus = args.get_int_or("gpus", sys.n_gpus);
    if (args.has("nvs")) sys.nvs_domain = args.get_int_or("nvs", sys.nvs_domain);
    (void)args.get("gpu");  // config file wins; mark as consumed
  } else {
    const auto gen = gen_by_name(args.get_or("gpu", "b200"));
    if (!gen) return usage("unknown --gpu (a100|h200|b200)");
    sys = hw::make_system(*gen, args.get_int_or("nvs", 8),
                          args.get_int_or("gpus", 1024));
  }

  // --- search options ---
  const std::string strat = args.get_or("strategy", "1d");
  std::vector<parallel::TpStrategy> strategies;
  if (strat == "1d") strategies = {parallel::TpStrategy::TP1D};
  else if (strat == "2d") strategies = {parallel::TpStrategy::TP2D};
  else if (strat == "summa") strategies = {parallel::TpStrategy::Summa2D};
  else if (strat == "all") {
    strategies = {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
                  parallel::TpStrategy::Summa2D};
  } else {
    return usage("unknown --strategy (1d|2d|summa|all)");
  }

  search::SearchOptions opts;
  opts.global_batch = args.get_int_or("batch", 4096);
  opts.top_k = static_cast<std::size_t>(args.get_int_or("top", 0));
  if (args.has("interleave")) opts.interleave_candidates = {1, 2, 4, 8};
  opts.allow_zero3 = args.has("zero3");
  opts.eval.tp_overlap = args.get_double_or("tp-overlap", 0.0);
  opts.eval.activation_offload = args.get_double_or("offload", 0.0);
  opts.eval.activation_recompute = args.has("recompute");
  const std::string plan_path = args.get_or("plan", "");
  const std::string save_plan = args.get_or("save-plan", "");
  const double tokens = args.get_double_or("tokens", 0.0);
  const double samples = args.get_double_or("samples", 0.0);
  const double rate = args.get_double_or("rate", 0.0);
  const bool want_ops = args.has("ops");
  const bool want_sens = args.has("sensitivity");
  const std::string csv = args.get_or("csv", "");
  const std::string markdown = args.get_or("markdown", "");

  const auto stray = args.unused();
  if (!stray.empty()) {
    return usage(("unknown flag --" + stray.front()).c_str());
  }

  std::cout << "Model:  " << mdl.name << " ("
            << util::format_fixed(mdl.total_params() / 1e9, 1)
            << "B params, l=" << mdl.seq_len << ", e=" << mdl.embed
            << ", h=" << mdl.heads << ", d=" << mdl.depth << ")\n";
  std::cout << "System: " << sys.describe() << "\n\n";

  std::vector<report::LabeledResult> rows;
  core::EvalResult best;
  parallel::TpStrategy best_strategy = strategies.front();
  if (!plan_path.empty()) {
    // Evaluate a saved plan directly, skipping the search.
    try {
      const io::LoadedPlan plan = io::load_plan_file(plan_path);
      opts.global_batch = plan.global_batch;
      best = core::evaluate(mdl, sys, plan.cfg, plan.global_batch, opts.eval);
      best_strategy = plan.cfg.strategy;
      rows.push_back({"plan", best});
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  } else
  for (auto s : strategies) {
    opts.strategy = s;
    const auto found = search::find_optimal(mdl, sys, opts);
    rows.push_back({parallel::to_string(s), found.best});
    if (found.best.feasible &&
        (!best.feasible || found.best.iteration() < best.iteration())) {
      best = found.best;
      best_strategy = s;
    } else if (!best.feasible) {
      // Nothing feasible so far: carry each strategy's reason, so an
      // all-infeasible search still says why.
      if (!best.reason.empty()) best.reason += "; ";
      best.reason += parallel::to_string(s) + ": " + found.best.reason;
    }
    if (opts.top_k > 0 && found.best.feasible) {
      for (std::size_t i = 1; i < found.top.size(); ++i) {
        rows.push_back({"  #" + std::to_string(i + 1), found.top[i]});
      }
    }
  }
  report::print_panels(std::cout, "optimal configurations", rows);

  if (!best.feasible) {
    std::cout << "No feasible configuration: " << best.reason << "\n";
    return 1;
  }
  std::cout << "Best: " << best.cfg.describe() << " — "
            << util::format_time(best.iteration()) << "/iteration\n";

  auto report_budget = [&](const core::TrainingEstimate& est,
                           const std::string& what) {
    const core::CostEstimate cost = core::estimate_cost(
        sys, sys.n_gpus, est.total_seconds, 1.3, rate);
    std::cout << "Training on " << what << ": "
              << util::format_fixed(est.days, 1) << " days, "
              << util::format_fixed(cost.gpu_hours / 1e6, 2) << "M GPU-hours, "
              << util::format_fixed(cost.energy_mwh, 0) << " MWh";
    if (rate > 0) {
      std::cout << ", $" << util::format_fixed(cost.cost_usd / 1e6, 1) << "M";
    }
    std::cout << "\n";
  };
  if (tokens > 0) {
    report_budget(core::estimate_token_training(mdl, opts.global_batch,
                                                best.iteration(), tokens),
                  std::to_string(tokens) + " tokens");
  }
  if (samples > 0) {
    report_budget(core::estimate_sample_training(opts.global_batch,
                                                 best.iteration(), samples),
                  std::to_string(samples) + " samples");
  }

  if (want_ops) {
    std::cout << '\n';
    report::print_op_report(std::cout, mdl, sys, best.cfg, opts.global_batch);
  }

  if (want_sens) {
    std::cout << "\nHardware elasticities (d log time / d log parameter):\n";
    for (const auto& s : report::hardware_sensitivities(
             mdl, sys, best_strategy, opts.global_batch)) {
      std::cout << "  " << s.parameter << ": "
                << util::format_fixed(s.elasticity, 3) << "\n";
    }
  }

  if (!csv.empty()) {
    report::write_results_csv(csv, rows);
    std::cout << "\nCSV written to " << csv << "\n";
  }
  if (!save_plan.empty()) {
    io::write_plan_file(save_plan, best, opts.global_batch);
    std::cout << "Plan written to " << save_plan << "\n";
  }
  if (!markdown.empty()) {
    report::write_markdown_report_file(
        markdown, "tfpe plan: " + mdl.name,
        {"Model: " + mdl.name, "System: " + sys.describe(),
         "Global batch: " + std::to_string(opts.global_batch)},
        rows);
    std::cout << "Markdown report written to " << markdown << "\n";
  }
  return 0;
}
