// tfpe — command-line front end to the performance model.
//
//   tfpe [plan] --model gpt3-1t --gpu b200 --gpus 16384 --nvs 8 --batch 4096
//   tfpe --model llama3-405b --gpu b200 --gpus 2048 --strategy summa
//        --interleave --zero3 --csv out.csv --ops --sensitivity
//   tfpe --model custom --l 4096 --e 8192 --heads 64 --depth 32 --gpus 512
//   tfpe sweep spec.tfpe --threads 4 --verify-legacy
//   tfpe codesign --config family.tfpe --gpu a100,b200 --strategy 2d
//   tfpe serve-plan --model llama3-405b --gpu h200 --nvs 8
//   tfpe lint [PATH] --format sarif --strict
//
// Every subcommand runs one prologue: it reads and checks each flag it
// accepts (a --config file is loaded only once its schema lint is clean,
// and every system it builds must pass analysis::lint_system), then main
// rejects any flag nobody read, and only then does the work run. Exit
// codes: 0 ok, 1 infeasible or a failed check, 2 usage or bad input
// (`error: ...` plus the command's help, or a located TFPE-* report, on
// stderr); `tfpe lint` adds 3 for warnings under --strict.

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/training_estimate.hpp"
#include "hw/topology.hpp"
#include "io/config_file.hpp"
#include "io/config_lint.hpp"
#include "io/plan_io.hpp"
#include "io/schema.hpp"
#include "report/breakdown_report.hpp"
#include "report/markdown_report.hpp"
#include "report/op_report.hpp"
#include "report/sensitivity.hpp"
#include "search/codesign.hpp"
#include "search/search.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep_lint.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace tfpe;

// --- shared prologue -------------------------------------------------------

std::string help_text(const std::string& cmd) {
  if (cmd == "sweep") {
    return
        "usage: tfpe sweep SPEC [--output PATH] [--threads N] [--warm-start]\n"
        "                       [--profile-stages] [--verify-legacy]\n"
        "                       [--ablate-topology]\n"
        "\n"
        "Batch experiment runner: the optimal configuration at every point\n"
        "of the [sweep] section's cross product (model x gpu x nvs x oversub\n"
        "x gpus x strategy x batch), one CSV row per point. The spec is\n"
        "schema-linted first; its format is in docs/API.md. `tfpe codesign`\n"
        "runs the same grid over an iso-parameter shape family.\n"
        "\n"
        "  --output PATH       CSV path (default: the spec's output, else\n"
        "                      sweep.csv)\n"
        "  --threads N         worker threads (0 = hardware concurrency)\n"
        "  --warm-start        seed each point's incumbent from its chain\n"
        "                      predecessor's optimum (throughput only)\n"
        "  --profile-stages    per-stage busy seconds and their overlap\n"
        "  --verify-legacy     re-solve every row with its own find_optimal\n"
        "                      call; exits 1 unless all are bitwise identical\n"
        "  --ablate-topology   re-run every two-level point under the\n"
        "                      degenerate three-level fabric; exits 1 on any\n"
        "                      difference\n";
  }
  if (cmd == "codesign") {
    return
        "usage: tfpe codesign [--model NAME | --config PATH] [options]\n"
        "\n"
        "Enumerates every transformer shape within a tolerance of the base\n"
        "model's parameter budget ([codesign] axes in the config file, or the\n"
        "defaults), crosses the family with the [sweep] section's hardware\n"
        "grid (gpu x nvs x oversub, at every gpus x strategy x batch; its\n"
        "model axis is tfpe sweep's) and reports, per grid point, the winning\n"
        "(shape, parallelization, placement) triple. Every reported result is\n"
        "bitwise identical to find_optimal on that (shape, point); shapes\n"
        "whose architecture-level compute floor exceeds the cross-shape\n"
        "incumbent are pruned whole, and a shape that reaches nothing at or\n"
        "below it is cut.\n"
        "\n"
        "  --model NAME        base preset the family is iso to (default gpt3-1t)\n"
        "  --config PATH       load [model], [codesign] and [sweep] from a file\n"
        "  --target-params B   override the parameter budget [billions]\n"
        "  --tolerance F       override the relative band (default 0.02)\n"
        "  --gpu LIST          [sweep] generations (default b200)\n"
        "  --nvs LIST          [sweep] NVS-domain sizes (default 8)\n"
        "  --gpus LIST         [sweep] total GPU counts (default 1024)\n"
        "  --strategy LIST     [sweep] 1d | 2d | summa (default 1d)\n"
        "  --batch LIST        [sweep] global batches (default 4096)\n"
        "  --threads N         worker threads (0 = hardware concurrency)\n"
        "  --no-prune-shapes   keep the full exact per-shape matrix (with\n"
        "                      --verify-per-shape: every pair bitwise checked)\n"
        "  --no-warm-start     cold incumbents (A/B baseline)\n"
        "  --verify-per-shape  cross-check every reported (shape, point) and\n"
        "                      winner bitwise against per-shape find_optimal,\n"
        "                      and every pruned or cut pair as slower than\n"
        "                      the winner; exits nonzero on any mismatch\n"
        "  --csv PATH          write per-point winners as CSV\n";
  }
  if (cmd == "serve-plan") {
    return
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
  }
  if (cmd == "lint") {
    return
        "usage: tfpe lint [PATH] [--model NAME] [--batch N]\n"
        "                 [--format text|json|sarif] [--strict]\n"
        "                 [--suppress CODE,...]\n"
        "\n"
        "Structured diagnostics over the whole pipeline: the paper's op-graph\n"
        "conservation laws, the compiled-signature and batched-SoA lowerings,\n"
        "sweep-plan soundness, hardware-description sanity and config-file\n"
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
  }
  std::string text =
      "usage: tfpe --model NAME --gpu {a100|h200|b200} --gpus N [options]\n"
      "\n"
      "model selection:\n"
      "  --model NAME        one of:";
  for (const auto& n : model::preset_names()) text += " " + n;
  return text +
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
      "  --tp-overlap F      hide fraction F (0..1) of TP communication\n"
      "  --offload F         offload fraction F (0..1) of activations to host\n"
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
      "  sweep SPEC          optimal configuration over a [sweep] grid, as CSV\n"
      "                      (see: tfpe sweep --help)\n"
      "  lint [PLAN_PATH]    check built op lists against the paper's\n"
      "                      conservation laws (see: tfpe lint --help)\n"
      "  codesign            iso-parameter architecture x config search\n"
      "                      (see: tfpe codesign --help)\n"
      "  serve-plan          latency/throughput Pareto front for inference\n"
      "                      serving (see: tfpe serve-plan --help)\n"
      "\n"
      "exit codes: 0 ok, 1 infeasible or a failed check, 2 usage or bad input\n";
}

/// Print `error: msg` and the command's help to stderr; exit code 2.
int usage(const std::string& cmd, const std::string& msg) {
  std::cerr << "error: " << msg << "\n\n" << help_text(cmd);
  return 2;
}

/// A flag or operand the prologue rejects: main turns it into usage().
void require(bool ok, const std::string& msg) {
  if (!ok) throw std::invalid_argument(msg);
}

/// Bad input a lint pass found: main prints the located report, exit 2.
struct Rejected {
  analysis::LintReport report;
};

void reject_errors(analysis::LintReport report) {
  if (report.errors() > 0) throw Rejected{std::move(report)};
}

/// --config PATH, loaded only once its schema lint (the checks of
/// `tfpe lint PATH`) finds no error.
io::LoadedConfig load_config(const util::ArgParser& args) {
  const auto path = args.get("config");
  if (!path) return {};
  reject_errors(io::lint_config_file(*path));
  return io::load_config_file(*path);
}

/// `sections`' [name] (empty when absent) with the value flags of the
/// record's rows written over it, read by `load` as that record.
template <class Load>
auto read_record(const util::ArgParser& args, const io::ConfigSections& sections,
                 const std::string& name, Load load) {
  const auto it = sections.find(name);
  return load(io::with_flags(
      name, it != sections.end() ? it->second : io::Section{},
      [&](const std::string& flag) { return args.get(flag); }));
}

/// The config file's [model] unless --model is given; else the named
/// preset, or `custom` built from --l/--e/--heads/--depth/....
model::TransformerConfig resolve_model(const util::ArgParser& args,
                                       const io::LoadedConfig& file,
                                       const std::string& fallback) {
  const auto name = args.get("model");
  if (!name && file.model) return *file.model;
  if (name == "custom") {
    io::Section custom{{"name", "custom"}};
    if (args.has("window")) custom["attention"] = "windowed";
    return read_record(args, {{"model", custom}}, "model",
                       io::model_from_section);
  }
  const auto preset = model::preset_by_name(name.value_or(fallback));
  require(preset.has_value(), "unknown model '" + name.value_or(fallback) + "'");
  return *preset;
}

hw::GpuGeneration generation(const std::string& name) {
  const auto gen = hw::generation_by_name(name);
  require(gen.has_value(), "unknown gpu '" + name + "' (a100|h200|b200)");
  return *gen;
}

/// `sys`, once analysis::lint_system finds no error in it.
hw::SystemConfig checked(hw::SystemConfig sys) {
  reject_errors(analysis::lint_system(sys));
  return sys;
}

unsigned read_threads(const util::ArgParser& args) {
  const std::int64_t threads = args.get_int_or("threads", 0);
  require(threads >= 0, "--threads must be >= 0");
  return static_cast<unsigned>(threads);
}

/// Re-solve every (shape, point) of `run`, and every point's winner by the
/// same shape-order reduction, with independent find_optimal calls: a
/// reported entry must match bitwise, and a floor-pruned or cut one must be
/// infeasible or strictly slower than the point's winner. Prints each
/// mismatch and returns their count.
std::size_t cross_check(const std::vector<model::TransformerConfig>& shapes,
                        const std::vector<hw::SystemConfig>& points,
                        const std::vector<std::string>& labels,
                        const search::CodesignOptions& opts,
                        const search::CodesignResult& run) {
  search::SearchOptions reference = opts.sweep.search;
  reference.threads = opts.sweep.threads;
  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    core::EvalResult ref;
    std::size_t ref_shape = search::CodesignResult::kNoShape;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      const core::EvalResult direct =
          search::find_optimal(shapes[s], points[p], reference).best;
      if (search::better_result(direct, ref)) {
        ref = direct;
        ref_shape = s;
      }
      const core::EvalResult& winner = run.best[p].best;
      if (run.pruned[s][p]
              ? !direct.feasible || (winner.feasible &&
                                     direct.iteration() > winner.iteration())
              : search::same_optimum(direct, run.per_shape[s][p])) {
        continue;
      }
      ++mismatches;
      std::cerr << (run.pruned[s][p] ? "PRUNED PAIR COULD WIN at "
                                     : "MISMATCH at ")
                << shapes[s].name << " x " << labels[p] << "\n";
    }
    if (ref_shape != run.best[p].shape ||
        !search::same_optimum(ref, run.best[p].best)) {
      ++mismatches;
      std::cerr << "WINNER MISMATCH at " << labels[p] << "\n";
    }
  }
  return mismatches;
}

/// A [sweep] record's hardware grid at each of its GPU counts: gpu x nvs x
/// oversub in search::hardware_grid's order, one call per count.
std::vector<std::vector<hw::SystemConfig>> hardware_grids(
    const io::SweepSpec& spec) {
  std::vector<hw::GpuGeneration> gens;
  for (const auto& g : spec.gpu) gens.push_back(generation(g));
  std::vector<std::int64_t> nvs;
  for (const auto& n : spec.nvs) nvs.push_back(*util::parse_int(n));
  std::vector<double> oversub;
  for (const auto& os : spec.oversub) oversub.push_back(*util::parse_real(os));
  std::vector<std::vector<hw::SystemConfig>> out;
  for (const auto& n_gpus : spec.gpus) {
    out.push_back(search::hardware_grid(gens, nvs, *util::parse_int(n_gpus),
                                        oversub, spec.leaf));
  }
  return out;
}

/// A subcommand's work, returned by its prologue once every flag it
/// accepts has been read and checked.
using Work = std::function<int()>;

// --- `tfpe lint`: op-graph invariant analyzer front end -------------------

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
int lint_file(const std::string& path, const model::TransformerConfig& mdl,
              std::int64_t batch, const std::string& format, bool strict,
              const analysis::LintOptions& opts) {
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

  // A section the schema pass rejected is reported there; the passes below
  // run on the records that load.
  const auto load = [&](const std::string& name, auto loader) {
    std::optional<decltype(loader(io::Section{}))> out;
    const auto it = sections.find(name);
    if (it != sections.end() &&
        io::find_schema(name)->problems(it->second).empty()) {
      out = loader(it->second);
    }
    return out;
  };

  if (const auto plan = load("plan", io::plan_from_section)) {
    try {
      if (batch == 0) batch = plan->global_batch;
      // Divisibility prechecks against a system just big enough for the
      // plan: the builders assume them, so a violated one is a diagnostic.
      const auto sys = hw::make_system(hw::GpuGeneration::B200,
                                       plan->cfg.placement_product(),
                                       plan->cfg.total_gpus());
      if (const auto why = plan->cfg.invalid_reason(mdl, sys, batch)) {
        fail_section("plan", "invalid plan configuration: " + *why);
      } else {
        const std::int64_t b = plan->cfg.local_microbatch(batch);
        const parallel::LayerCost layer =
            parallel::build_layer(mdl, plan->cfg, b);
        sink.merge(analysis::lint_layer(mdl, plan->cfg, b, layer, opts));
        const core::CostSignature sig =
            core::compile_signature(mdl, plan->cfg, batch, layer);
        sink.merge(analysis::lint_signature(mdl, plan->cfg, sig, layer, opts));
        sink.merge(analysis::lint_batched(sig, core::lower_batched(sig), opts));
        sink.merge(analysis::lint_system(sys, sig, opts));
        const hw::Topology fab = sys.resolved_fabric();
        const parallel::ParallelConfig& c = plan->cfg;
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

  if (const auto spec = load("sweep", io::sweep_from_section)) {
    try {
      std::vector<hw::SystemConfig> points;
      for (const auto& grid : hardware_grids(*spec)) {
        points.insert(points.end(), grid.begin(), grid.end());
      }
      sink.merge(search::lint_sweep_plan(points, opts));
    } catch (const std::exception& e) {
      fail_section("sweep", e.what());
    }
  }

  std::string records;
  bool any = false;
  for (const io::Schema& record : io::schemas()) {
    records += (records.empty() ? "[" : ", [") + record.section + "]";
    any = any || sections.count(record.section) > 0;
  }
  if (!any) {
    sink.emit(analysis::RuleId::kConfigMissingKey, "<file>", 0, 0,
              "no " + records + " section to lint", std::nullopt, path, 0);
  }

  if (format == "text") {
    std::cout << "lint " << path << "\n";
  }
  return finish_lint(sink.take(), format, strict);
}

/// No file: lint the preset x strategy matrix (op graph + signature +
/// batched lowering per case), the default system and the default sweep
/// plan, aggregated into one report.
int lint_matrix(std::int64_t b, const std::string& format, bool strict,
                const analysis::LintOptions& opts) {
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
  sink.merge(search::lint_sweep_plan({sys}, opts));

  if (text) std::cout << cases.size() << " op lists linted\n";
  return finish_lint(sink.take(), format, strict);
}

Work lint_cmd(const util::ArgParser& args) {
  const auto& pos = args.positional();
  require(pos.size() <= 2, "too many arguments");
  const std::string format = args.get_or("format", "text");
  require(format == "text" || format == "json" || format == "sarif",
          "unknown --format '" + format + "'");
  const bool strict = args.has("strict");
  analysis::LintOptions opts;
  for (const std::string& code :
       util::split_list(args.get_or("suppress", ""))) {
    require(opts.rules.suppress(code),
            "unknown rule '" + code + "' in --suppress");
  }

  // --strict takes no value, but the parser's "--flag value" rule swallows
  // a following PATH operand into it ("lint --strict plan.tfpe") — reclaim
  // it so flag order never changes which artifact gets linted.
  std::string path = pos.size() == 2 ? pos[1] : "";
  if (const auto v = args.raw("strict"); v && !v->empty()) {
    require(path.empty(), "too many arguments");
    path = *v;
  }
  // With a PATH, an absent --batch (0) means the plan's own.
  const std::int64_t batch = args.get_int_or("batch", path.empty() ? 2 : 0);
  require(batch >= 1 || !args.has("batch"), "--batch must be >= 1");
  if (!path.empty()) {
    const model::TransformerConfig mdl = resolve_model(args, {}, "gpt3-1t");
    return [=] { return lint_file(path, mdl, batch, format, strict, opts); };
  }
  return [=] { return lint_matrix(batch, format, strict, opts); };
}

// --- `tfpe sweep` and `tfpe codesign`: one slice loop over a [sweep] grid -

/// The [sweep] grid a command runs: per GPU count one hardware grid, every
/// system lint-checked, and each grid point's (gpu, nvs, oversub) as the
/// spec writes them.
struct SweepGrid {
  io::SweepSpec spec;
  std::vector<std::array<std::string, 3>> axes;
  std::vector<std::vector<hw::SystemConfig>> systems;  ///< per spec.gpus
};

SweepGrid sweep_grid(const io::SweepSpec& spec) {
  SweepGrid out{spec, {}, hardware_grids(spec)};
  for (const auto& g : spec.gpu) {
    for (const auto& n : spec.nvs) {
      for (const auto& os : spec.oversub) out.axes.push_back({g, n, os});
    }
  }
  for (auto& grid : out.systems) {
    for (auto& sys : grid) sys = checked(sys);
  }
  return out;
}

/// One (gpus, strategy, batch) slice of a SweepGrid, as run_codesign ran it.
struct Slice {
  std::size_t index;  ///< over gpus x strategy x batch, batch innermost
  std::string gpus, strategy, batch;
  const std::vector<hw::SystemConfig>& systems;
  /// Per grid point: `<gpu> nvs<N> os<R> n<G> <strategy> b<B>`.
  std::vector<std::string> labels;
  search::CodesignOptions opts;
  search::CodesignResult run;
};

/// What a command's slices add up to.
struct Totals {
  search::CodesignStats stats;  ///< summed over slices (`shapes`: the last)
  double seconds = 0.0;         ///< spent in run_codesign
  std::size_t mismatches = 0;   ///< cross_check's
};

/// Run `shapes` over every slice of `grid`, one run_codesign call each
/// under `base` with the slice's strategy and batch; sum its stats into
/// `totals`, cross-check it when `verify`, and hand it to `each`.
void run_slices(const SweepGrid& grid,
                const std::vector<model::TransformerConfig>& shapes,
                const search::CodesignOptions& base, bool verify,
                Totals& totals, const std::function<void(const Slice&)>& each) {
  using Stats = search::CodesignStats;
  static constexpr std::size_t Stats::*kSummed[] = {
      &Stats::points, &Stats::candidates, &Stats::evaluated,
      &Stats::bound_pruned, &Stats::subtree_pruned,
      &Stats::placement_floor_pruned, &Stats::signature_compiles,
      &Stats::signature_cache_hits, &Stats::signature_reuses,
      &Stats::batch_calls, &Stats::batch_placements, &Stats::warm_seeded,
      &Stats::warm_seed_feasible, &Stats::shapes_pruned,
      &Stats::shapes_evaluated, &Stats::shapes_cut,
      &Stats::feasible_shape_points, &Stats::enumerations,
      &Stats::enumeration_hits};
  const io::SweepSpec& spec = grid.spec;
  std::size_t index = 0;
  for (std::size_t g = 0; g < spec.gpus.size(); ++g) {
    for (const auto& strategy : spec.strategy) {
      for (const auto& batch : spec.batch) {
        Slice slice{index++, spec.gpus[g], strategy, batch, grid.systems[g],
                    {}, base, {}};
        for (const auto& [gpu, nvs, os] : grid.axes) {
          slice.labels.push_back(gpu + " nvs" + nvs + " os" + os + " n" +
                                 slice.gpus + " " + strategy + " b" + batch);
        }
        slice.opts.sweep.search.strategy =
            *parallel::strategy_by_name(strategy);
        slice.opts.sweep.search.global_batch = *util::parse_int(batch);

        const auto t0 = std::chrono::steady_clock::now();
        slice.run = search::run_codesign(shapes, slice.systems, slice.opts);
        totals.seconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const Stats& st = slice.run.stats;
        for (const auto field : kSummed) totals.stats.*field += st.*field;
        totals.stats.shapes = st.shapes;
        totals.stats.profile.enumerate_s += st.profile.enumerate_s;
        totals.stats.profile.compile_s += st.profile.compile_s;
        totals.stats.profile.time_s += st.profile.time_s;
        totals.stats.profile.wall_s += st.profile.wall_s;
        if (verify) {
          totals.mismatches += cross_check(shapes, slice.systems,
                                           slice.labels, slice.opts, slice.run);
        }
        each(slice);
      }
    }
  }
}

Work sweep_cmd(const util::ArgParser& args) {
  require(args.positional().size() > 1, "missing sweep spec");
  const std::string spec_path = args.positional()[1];
  // Every axis value (model / gpu / strategy names, positive integers,
  // oversubscription ratios) is validated here, before any work.
  reject_errors(io::lint_config_file(spec_path));
  io::ConfigSections sections;
  {
    std::ifstream in(spec_path);
    sections = io::parse_config(in);
  }
  const auto it = sections.find("sweep");
  require(it != sections.end(), "spec has no [sweep] section");
  const SweepGrid grid = sweep_grid(io::sweep_from_section(it->second));

  std::string output = args.get_or("output", "");
  if (output.empty()) output = grid.spec.output;
  const bool verify_legacy = args.has("verify-legacy");
  const bool ablate_topology = args.has("ablate-topology");
  search::CodesignOptions opts;
  opts.sweep.threads = read_threads(args);
  opts.sweep.warm_start = args.has("warm-start");
  // Every row must be a true find_optimal result, so the full per-shape
  // matrix is kept.
  opts.prune_shapes = false;
  const bool profile_stages = args.has("profile-stages");

  return [=] {
    const io::SweepSpec& spec = grid.spec;
    // One CSV row: a sweep point's axis values in spec nesting order, its
    // label, its optimum and the sequence length its throughput uses.
    struct Row {
      std::vector<std::string> axes;
      std::string label;
      core::EvalResult r;
      std::int64_t seq_len = 0;
    };
    const std::size_t n_slices =
        spec.gpus.size() * spec.strategy.size() * spec.batch.size();
    std::vector<Row> rows(spec.model.size() * grid.axes.size() * n_slices);
    Totals totals;
    std::size_t ablation_mismatches = 0;
    std::size_t ablation_checked = 0;

    for (std::size_t m = 0; m < spec.model.size(); ++m) {
      const auto mdl = *model::preset_by_name(spec.model[m]);
      run_slices(grid, {mdl}, opts, verify_legacy, totals, [&](const Slice& s) {
        for (std::size_t j = 0; j < grid.axes.size(); ++j) {
          const auto& [gpu, nvs, os] = grid.axes[j];
          // Spec nesting order: the model, the grid point, the slice.
          rows[(m * grid.axes.size() + j) * n_slices + s.index] = {
              {spec.model[m], gpu, nvs, os, s.gpus, s.strategy, s.batch},
              s.labels[j], s.run.per_shape[0][j], mdl.seq_len};
        }
        if (!ablate_topology) return;
        // Swap every two-level point's fabric for the degenerate
        // three-level preset (leaf pod = NVS domain, full bisection):
        // walking one extra level with fan-in 1 must not change a single
        // bit of the optimum.
        std::vector<hw::SystemConfig> degenerate = s.systems;
        std::vector<bool> swapped(degenerate.size(), false);
        for (std::size_t j = 0; j < degenerate.size(); ++j) {
          hw::SystemConfig& sys = degenerate[j];
          if (!sys.fabric.levels.empty()) continue;  // 3-level
          sys.fabric = hw::leaf_spine_topology(sys.net, sys.nvs_domain,
                                               sys.nvs_domain, sys.n_gpus, 1.0);
          swapped[j] = true;
        }
        const search::SweepResult check =
            search::run_sweep(mdl, degenerate, s.opts.sweep);
        for (std::size_t j = 0; j < degenerate.size(); ++j) {
          if (!swapped[j]) continue;
          ++ablation_checked;
          if (!search::same_optimum(s.run.per_shape[0][j], check.best[j])) {
            ++ablation_mismatches;
            std::cerr << "ABLATION MISMATCH at " << mdl.name << " "
                      << s.labels[j] << "\n";
          }
        }
      });
    }

    // The axis columns are the [sweep] list rows, in spec nesting order.
    std::vector<std::string> header;
    for (const io::Row& row : io::find_schema("sweep")->rows) {
      if (io::is_list(row.kind)) header.push_back(row.key);
    }
    header.insert(header.end(), {"feasible", "config", "iter_s",
                                 "tokens_per_s_per_gpu", "hbm_gb"});
    util::CsvWriter csv(output);
    csv.write_header(header);
    std::size_t feasible = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& [axes, label, r, seq_len] = rows[i];
      if (r.feasible) ++feasible;
      const auto n = static_cast<double>(*util::parse_int(axes[4]));
      const double tps =
          r.feasible ? static_cast<double>(*util::parse_int(axes[6])) *
                           static_cast<double>(seq_len) / r.iteration() / n
                     : 0.0;
      std::vector<std::string> cells = axes;
      cells.insert(
          cells.end(),
          {r.feasible ? "1" : "0", r.feasible ? r.cfg.describe() : r.reason,
           util::format_fixed(r.feasible ? r.iteration() : 0.0, 6),
           util::format_fixed(tps, 1),
           util::format_fixed(r.feasible ? r.mem.total().value() / 1e9 : 0.0,
                              2)});
      csv.write_row(cells);
      std::cout << "[" << (i + 1) << "] " << axes[0] << " " << label << ": "
                << (r.feasible ? util::format_time(r.iteration())
                               : "infeasible")
                << "\n";
    }

    const std::size_t n_rows = rows.size();
    std::cout << n_rows << " sweep points (" << feasible
              << " feasible) written to " << output << "\n";
    const search::CodesignStats& st = totals.stats;
    const double pps = totals.seconds > 0.0
                           ? static_cast<double>(n_rows) / totals.seconds
                           : 0.0;
    std::printf("%.3fs  %.1f points/s  compiles=%zu  compile-cache hit "
                "rate=%.1f%%  batch-occupancy=%.1f  placement-floor-pruned=%zu",
                totals.seconds, pps, st.signature_compiles,
                100.0 * st.compile_hit_rate(), st.batch_occupancy(),
                st.placement_floor_pruned);
    if (opts.sweep.warm_start) {
      std::printf("  warm-seeds=%zu/%zu", st.warm_seed_feasible,
                  st.warm_seeded);
    }
    std::printf("\n");
    if (profile_stages) {
      std::printf(
          "stages: enumerate=%.3fs  compile=%.3fs  time=%.3fs  wall=%.3fs  "
          "overlap=%.2fx  subtree-pruned=%zu\n",
          st.profile.enumerate_s, st.profile.compile_s, st.profile.time_s,
          st.profile.wall_s, st.profile.overlap(), st.subtree_pruned);
    }
    if (verify_legacy) {
      if (totals.mismatches != 0) {
        std::cerr << totals.mismatches << " grid points differ between the "
                  << "sweep engine and per-point find_optimal\n";
        return 1;
      }
      std::cout << "verify-legacy: all " << n_rows
                << " optima bitwise identical across engines\n";
    }
    if (ablate_topology) {
      if (ablation_mismatches != 0) {
        std::cerr << ablation_mismatches << " grid points differ between the "
                  << "two-level fabric and the degenerate three-level preset\n";
        return 1;
      }
      std::cout << "ablate-topology: " << ablation_checked
                << " two-level optima bitwise identical under the degenerate "
                << "three-level fabric\n";
    }
    return 0;
  };
}

Work codesign_cmd(const util::ArgParser& args) {
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig base = resolve_model(args, file, "gpt3-1t");
  const model::ShapeFamilyOptions fam =
      read_record(args, file.sections, "codesign", io::codesign_from_section);
  // The hardware grid is the [sweep] record; its model axis and output are
  // sweep's alone.
  const SweepGrid grid =
      sweep_grid(read_record(args, file.sections, "sweep",
                             io::sweep_from_section));
  search::CodesignOptions opts;
  opts.sweep.threads = read_threads(args);
  opts.sweep.warm_start = !args.has("no-warm-start");
  opts.prune_shapes = !args.has("no-prune-shapes");
  const bool verify = args.has("verify-per-shape");
  const std::string csv = args.get_or("csv", "");
  const std::vector<model::TransformerConfig> shapes =
      model::shape_family(base, fam);

  return [=] {
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

    std::vector<report::LabeledResult> rows;
    Totals totals;
    run_slices(grid, shapes, opts, verify, totals, [&](const Slice& s) {
      if (s.index > 0) std::cout << "\n";
      std::cout << "Grid:   " << s.systems.size() << " hardware points x "
                << shapes.size() << " shapes, " << s.strategy << ", batch "
                << s.batch << ", " << s.gpus << " GPUs\n\n";
      for (std::size_t p = 0; p < s.systems.size(); ++p) {
        const auto& w = s.run.best[p];
        if (w.shape == search::CodesignResult::kNoShape) {
          std::cout << s.labels[p] << ": no feasible shape\n";
          continue;
        }
        std::cout << s.labels[p] << ": " << shapes[w.shape].name << " — "
                  << util::format_time(w.best.iteration()) << "/iteration, "
                  << w.best.cfg.describe() << "\n";
        rows.push_back({s.labels[p] + " " + shapes[w.shape].name, w.best});
      }
    });

    const auto& st = totals.stats;
    const std::size_t shape_points = st.shapes * st.points;
    std::printf(
        "\n%zu shape-points: %zu floor-pruned, %zu cut, %zu scanned (%zu "
        "feasible)  %.3fs  %.1f shape-points/s\n",
        shape_points, st.shapes_pruned, st.shapes_cut, st.shapes_evaluated,
        st.feasible_shape_points, totals.seconds,
        totals.seconds > 0
            ? static_cast<double>(shape_points) / totals.seconds
            : 0.0);
    std::printf(
        "enumerations=%zu (%zu memo hits)  candidates=%zu  evaluated=%zu  "
        "bound-pruned=%zu  subtree-pruned=%zu  placement-floor-pruned=%zu  "
        "warm-seeds=%zu/%zu\n",
        st.enumerations, st.enumeration_hits, st.candidates, st.evaluated,
        st.bound_pruned, st.subtree_pruned, st.placement_floor_pruned,
        st.warm_seed_feasible, st.warm_seeded);

    if (verify) {
      if (totals.mismatches != 0) {
        std::cerr << totals.mismatches
                  << " results differ from per-shape find_optimal\n";
        return 1;
      }
      std::cout << "verify-per-shape: all reported results and winners "
                   "bitwise identical to find_optimal, every pruned or cut "
                   "pair slower than its point's winner\n";
    }

    if (!csv.empty()) {
      report::write_results_csv(csv, rows);
      std::cout << "CSV written to " << csv << "\n";
    }
    return 0;
  };
}

// --- `tfpe serve-plan`: inference latency/throughput Pareto search --------

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

Work serve_plan_cmd(const util::ArgParser& args) {
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig mdl =
      resolve_model(args, file, "llama3-405b");
  hw::SystemConfig sys = file.system.value_or(
      hw::make_system(hw::GpuGeneration::H200, 8, 8));
  if (const auto name = args.get("gpu")) {
    const auto fresh =
        hw::make_system(generation(*name), sys.nvs_domain, sys.n_gpus);
    sys.gpu = fresh.gpu;
    sys.net = fresh.net;
  }
  sys.nvs_domain = args.get_int_or("nvs", sys.nvs_domain);
  sys.n_gpus = args.get_int_or("gpus", sys.n_gpus);
  sys = checked(sys);

  const core::ServingSpec spec =
      read_record(args, file.sections, "serving", io::serving_from_section);
  const bool show_all = args.has("all");
  const std::string csv = args.get_or("csv", "");

  return [=] {
    std::cout << "Serving " << mdl.name << " on " << sys.gpu.name << " nvs"
              << sys.nvs_domain << ": prompt " << spec.prompt_len << " + "
              << spec.output_len << " output tokens, KV cap "
              << util::format_fixed(100.0 * spec.kv_cap_fraction, 0)
              << "% of HBM\n\n";

    search::ServePlanOptions opts;
    opts.spec = spec;
    const search::ServePlanResult run = search::run_serve_plan(mdl, sys, opts);

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
  };
}

// --- `tfpe [plan]`: the optimal configuration for one model and system ----

bool in_unit_interval(double x) { return x >= 0.0 && x <= 1.0; }
bool finite_non_negative(double x) { return std::isfinite(x) && x >= 0.0; }

Work plan_cmd(const util::ArgParser& args) {
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig mdl = resolve_model(args, file, "gpt3-1t");

  search::SearchOptions opts;
  const std::int64_t n_gpus = args.get_int_or(
      "gpus", file.system ? file.system->n_gpus : 1024);
  const std::int64_t nvs = args.get_int_or(
      "nvs", file.system ? file.system->nvs_domain : 8);
  opts.global_batch = args.get_int_or("batch", 4096);
  const std::int64_t top = args.get_int_or("top", 0);
  opts.eval.tp_overlap = args.get_double_or("tp-overlap", 0.0);
  opts.eval.activation_offload = args.get_double_or("offload", 0.0);
  const double tokens = args.get_double_or("tokens", 0.0);
  const double samples = args.get_double_or("samples", 0.0);
  const double rate = args.get_double_or("rate", 0.0);
  require(n_gpus >= 1, "--gpus must be >= 1");
  require(opts.global_batch >= 1, "--batch must be >= 1");
  require(top >= 0, "--top must be >= 0");
  // Exposed TP communication is (1 - tp_overlap) of its time: outside
  // [0, 1] it goes negative or grows, and the search's time floors stop
  // being bounds. The offloaded share of activations is a fraction too.
  require(in_unit_interval(opts.eval.tp_overlap),
          "--tp-overlap must lie in [0, 1]");
  require(in_unit_interval(opts.eval.activation_offload),
          "--offload must lie in [0, 1]");
  // Budgets and the price are amounts: a negative or non-finite one would
  // silently drop its report line.
  require(finite_non_negative(tokens), "--tokens must be finite and >= 0");
  require(finite_non_negative(samples), "--samples must be finite and >= 0");
  require(finite_non_negative(rate), "--rate must be finite and >= 0");
  opts.top_k = static_cast<std::size_t>(top);

  hw::SystemConfig sys;
  if (file.system) {
    sys = *file.system;
    sys.n_gpus = n_gpus;
    sys.nvs_domain = nvs;
    (void)args.get("gpu");  // config file wins; mark as consumed
  } else {
    sys = hw::make_system(generation(args.get_or("gpu", "b200")), nvs, n_gpus);
  }
  sys = checked(sys);

  const std::string strat = args.get_or("strategy", "1d");
  std::vector<parallel::TpStrategy> strategies = {
      parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
      parallel::TpStrategy::Summa2D};
  if (strat != "all") {
    const auto one = parallel::strategy_by_name(strat);
    require(one.has_value(), "unknown --strategy (1d|2d|summa|all)");
    strategies = {*one};
  }
  if (args.has("interleave")) opts.interleave_candidates = {1, 2, 4, 8};
  opts.allow_zero3 = args.has("zero3");
  opts.eval.activation_recompute = args.has("recompute");
  // --plan PATH, loaded only once its schema lint finds no error.
  std::optional<io::LoadedPlan> plan;
  if (const auto path = args.get("plan")) {
    reject_errors(io::lint_config_file(*path));
    plan = io::load_plan_file(*path);
  }
  const std::string save_plan = args.get_or("save-plan", "");
  const bool want_ops = args.has("ops");
  const bool want_sens = args.has("sensitivity");
  const std::string csv = args.get_or("csv", "");
  const std::string markdown = args.get_or("markdown", "");

  return [=]() mutable {
    std::cout << "Model:  " << mdl.name << " ("
              << util::format_fixed(mdl.total_params() / 1e9, 1)
              << "B params, l=" << mdl.seq_len << ", e=" << mdl.embed
              << ", h=" << mdl.heads << ", d=" << mdl.depth << ")\n";
    std::cout << "System: " << sys.describe() << "\n\n";

    std::vector<report::LabeledResult> rows;
    core::EvalResult best;
    parallel::TpStrategy best_strategy = strategies.front();
    if (plan) {
      // Evaluate a saved plan directly, skipping the search.
      opts.global_batch = plan->global_batch;
      best = core::evaluate(mdl, sys, plan->cfg, plan->global_batch, opts.eval);
      best_strategy = plan->cfg.strategy;
      rows.push_back({"plan", best});
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
                << util::format_fixed(cost.gpu_hours / 1e6, 2)
                << "M GPU-hours, " << util::format_fixed(cost.energy_mwh, 0)
                << " MWh";
      if (rate > 0) {
        std::cout << ", $" << util::format_fixed(cost.cost_usd / 1e6, 1)
                  << "M";
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
      report::print_op_report(std::cout, mdl, sys, best.cfg,
                              opts.global_batch);
    }

    if (want_sens) {
      std::cout << "\nHardware elasticities (d log time / d log parameter):\n";
      opts.strategy = best_strategy;
      for (const auto& s : report::hardware_sensitivities(mdl, sys, opts)) {
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
  };
}

}  // namespace

int main(int argc, char** argv) {
  const util::ArgParser args(argc, argv);
  using Command = Work (*)(const util::ArgParser&);
  static const std::map<std::string, Command> kCommands = {
      {"plan", plan_cmd},
      {"sweep", sweep_cmd},
      {"codesign", codesign_cmd},
      {"serve-plan", serve_plan_cmd},
      {"lint", lint_cmd}};
  const auto& pos = args.positional();
  auto it = pos.empty() ? kCommands.end() : kCommands.find(pos.front());
  if (it == kCommands.end()) it = kCommands.find("plan");
  const std::string& cmd = it->first;
  if (args.has("help")) {
    std::cerr << help_text(cmd);
    return 0;
  }
  try {
    const Work work = it->second(args);
    const auto stray = args.unused();
    if (!stray.empty()) return usage(cmd, "unknown flag --" + stray.front());
    return work();
  } catch (const Rejected& rejected) {
    std::cerr << analysis::render_text(rejected.report) << "\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    return usage(cmd, e.what());
  } catch (const std::runtime_error& e) {
    return usage(cmd, e.what());
  }
}
