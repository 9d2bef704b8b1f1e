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
// Each subcommand declares its flags once, in commands(): its own io::Row
// entries plus the row flags of the .tfpe records it takes. The parser,
// every value check (io::read_flag) and --help read them. A prologue reads
// the flags (a --config file only once its schema lint is clean, every
// system through analysis::lint_system), run() rejects any flag nobody
// read, then the work runs. Exit codes: 0 ok, 1 infeasible or a failed
// check, 2 usage or bad input (`error: ...` plus help, or a located TFPE-*
// report, on stderr); `tfpe lint` adds 3 for warnings under --strict.

#include "cli.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "core/batched_signature.hpp"
#include "core/training_estimate.hpp"
#include "hw/topology.hpp"
#include "io/args.hpp"
#include "io/config_file.hpp"
#include "io/config_lint.hpp"
#include "io/plan_io.hpp"
#include "report/breakdown_report.hpp"
#include "report/markdown_report.hpp"
#include "report/op_report.hpp"
#include "report/sensitivity.hpp"
#include "search/codesign.hpp"
#include "search/search.hpp"
#include "search/serve_plan.hpp"
#include "search/sweep_lint.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace tfpe::cli {
namespace {

// --- shared prologue -------------------------------------------------------

/// A subcommand's work, returned by its prologue once every flag it
/// accepts has been read and checked.
using Work = std::function<int()>;

/// A subcommand: its usage line and prose, one row per flag it reads, and
/// the prologue that reads them.
struct Command {
  std::string name;
  const char* usage;
  std::vector<io::Row> rows;
  Work (*prologue)(const io::ArgParser&);
};

/// The usage and prose, then one entry per flag row: its help line, then
/// what it admits and its default.
std::string help_text(const Command& cmd) {
  // Each io::Kind's placeholder, in enumerator order.
  static constexpr const char* kMeta[] = {" N",    " X",    " NAME", " PATH",
                                          " LIST", " LIST", " LIST", " LIST",
                                          ""};
  std::string out = std::string(cmd.usage) + "\n";
  for (const io::Row& r : cmd.rows) {
    std::string name = "  --" + std::string(r.flag) +
                       kMeta[static_cast<int>(r.kind)];
    name.resize(std::max<std::size_t>(name.size() + 1, 24), ' ');
    out += name + r.help + "\n";
    const std::string def = r.fallback ? r.fallback : "";
    std::string note = io::describe(r);
    if (r.fallback) note += (note.empty() ? "default " : "; default ") + def;
    if (!note.empty()) out += std::string(24, ' ') + "(" + note + ")\n";
  }
  return out;
}

/// Print `error: msg` and the command's help to stderr; exit code 2.
int usage(const Command& cmd, const std::string& msg) {
  std::cerr << "error: " << msg << "\n\n" << help_text(cmd);
  return 2;
}

/// An operand or a check across flags the prologue rejects: run() turns
/// it into usage().
void require(bool ok, const std::string& msg) {
  if (!ok) throw std::invalid_argument(msg);
}

/// Bad input a lint pass found: run() prints the located report, exit 2.
struct Rejected {
  analysis::LintReport report;
};

void reject_errors(analysis::LintReport report) {
  if (report.errors() > 0) throw Rejected{std::move(report)};
}

/// The .tfpe file at `path`, loaded only once its schema lint (the checks
/// of `tfpe lint PATH`) finds no error.
io::LoadedConfig load_file(const std::string& path) {
  reject_errors(io::lint_config_file(path));
  return io::load_config_file(path);
}

io::LoadedConfig load_config(const io::ArgParser& args) {
  const auto path = args.given("config");
  return path ? load_file(path->text) : io::LoadedConfig{};
}

/// The config file's [model] unless --model is given; else the named
/// preset, or `custom` built from --l/--e/--heads/--depth/....
model::TransformerConfig resolve_model(const io::ArgParser& args,
                                       const io::LoadedConfig& file) {
  if (!args.given("model") && file.model) return *file.model;
  const std::string name = args.value("model").text;
  if (name == "custom") {
    io::Section custom{{"name", "custom"}};
    if (args.has("window")) custom["attention"] = "windowed";
    return io::model_from_section(args.record({{"model", custom}}, "model"));
  }
  return *model::preset_by_name(name);
}

/// `sys`, once analysis::lint_system finds no error in it.
hw::SystemConfig checked(hw::SystemConfig sys) {
  reject_errors(analysis::lint_system(sys));
  return sys;
}

/// The config file's [system] with each given --gpu (its GPU and network
/// presets), --nvs and --gpus written over it; without one, the flags or
/// their defaults.
hw::SystemConfig system_of(const io::ArgParser& args,
                           const io::LoadedConfig& file) {
  hw::SystemConfig sys = file.system.value_or(hw::SystemConfig{});
  if (!file.system || args.given("gpu")) {
    const auto gen = *hw::generation_by_name(args.value("gpu").text);
    sys.gpu = hw::gpu_preset(gen);
    sys.net = hw::network_preset(gen);
  }
  if (!file.system || args.given("nvs")) sys.nvs_domain = args.integer("nvs");
  if (!file.system || args.given("gpus")) sys.n_gpus = args.integer("gpus");
  return checked(sys);
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
  for (const auto& g : spec.gpu) gens.push_back(*hw::generation_by_name(g));
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

/// Lint one .tfpe file: schema first, then the passes its sections select.
/// `mdl` and `batch` (0: the plan's own) are what a [plan] is linted for;
/// a file without a [plan] rejects --model (`model_given`) and --batch.
int lint_file(const std::string& path, const model::TransformerConfig& mdl,
              bool model_given, std::int64_t batch, const std::string& format,
              bool strict, const analysis::LintOptions& opts) {
  analysis::DiagnosticSink sink(opts.rules);
  const analysis::LintReport schema = io::lint_config_file(path, opts);
  const bool unparseable = std::any_of(
      schema.diagnostics.begin(), schema.diagnostics.end(),
      [](const auto& d) { return d.id == analysis::RuleId::kConfigParse; });
  sink.merge(schema);
  if (unparseable) {
    // A file that does not parse at all is a usage-level failure: render
    // the report (it carries the parse diagnostic) and exit 2, never the
    // old empty-but-clean 0.
    finish_lint(sink.take(), format, strict);
    return 2;
  }

  std::ifstream in(path);
  const io::ConfigSections sections = io::parse_config(in);  // it parses
  const char* unused = model_given ? "model" : batch != 0 ? "batch" : nullptr;
  if (unused && !sections.count("plan")) {
    throw std::invalid_argument(std::string("flag --") + unused +
                                " applies to a [plan] section, and " + path +
                                " has none");
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
  using enum parallel::TpStrategy;
  struct Case {
    model::TransformerConfig mdl;
    std::string label;
    parallel::ParallelConfig cfg;
  };
  const parallel::ParallelConfig tp1d{.n1 = 8};
  const parallel::ParallelConfig tp2d{.strategy = TP2D, .n1 = 8, .n2 = 2};
  std::vector<Case> cases;
  for (const auto& mdl : {model::gpt3_1t(), model::vit_64k()}) {
    cases.push_back({mdl, "1d", tp1d});
    cases.push_back({mdl, "2d", tp2d});
    cases.push_back({mdl, "summa", {.strategy = Summa2D, .n1 = 4, .n2 = 4,
                                    .nb = 4}});
    cases.push_back({mdl, "2d+ring", {.strategy = TP2D, .n1 = 8, .n2 = 2,
                                      .ring_attention = true}});
  }
  cases.push_back({model::gpt_moe_1t(), "1d", tp1d});
  cases.push_back({model::gpt_moe_1t(), "2d", tp2d});

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

  // Default machine description as a one-point sweep plan, so the
  // SYS/TOPO/SWEEP rule families run on every bare `tfpe lint` (the plan
  // lints each of its systems).
  sink.merge(search::lint_sweep_plan(
      {hw::make_system(hw::GpuGeneration::B200, 8, 1024)}, opts));

  if (text) std::cout << cases.size() << " op lists linted\n";
  return finish_lint(sink.take(), format, strict);
}

Work lint_cmd(const io::ArgParser& args) {
  const auto& pos = args.positional();
  require(pos.size() <= 1, "too many arguments");
  const std::string format = args.value("format").text;
  const bool strict = args.has("strict");
  analysis::LintOptions opts;
  for (const std::string& code : args.value("suppress").items) {
    opts.rules.suppress(code);
  }
  // With a PATH, an absent --batch (0) means the plan's own.
  const auto given_batch = args.given("batch");
  const std::int64_t batch =
      given_batch ? given_batch->ints.front() : pos.empty() ? 2 : 0;
  if (!pos.empty()) {
    const model::TransformerConfig mdl = resolve_model(args, {});
    return [=, path = pos[0], model_given = args.given("model").has_value()] {
      return lint_file(path, mdl, model_given, batch, format, strict, opts);
    };
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
      &Stats::feasible_shape_points, &Stats::enumerations};
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

Work sweep_cmd(const io::ArgParser& args) {
  require(!args.positional().empty(), "missing sweep spec");
  // Every axis value (model / gpu / strategy names, positive integers,
  // oversubscription ratios) is validated here, before any work.
  const io::ConfigSections sections =
      load_file(args.positional()[0]).sections;
  const auto it = sections.find("sweep");
  require(it != sections.end(), "spec has no [sweep] section");
  const SweepGrid grid = sweep_grid(io::sweep_from_section(it->second));

  std::string output = args.value("output").text;
  if (output.empty()) output = grid.spec.output;
  const bool verify_legacy = args.has("verify-legacy");
  const bool ablate_topology = args.has("ablate-topology");
  search::CodesignOptions opts;
  opts.sweep.threads = static_cast<unsigned>(args.integer("threads"));
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

Work codesign_cmd(const io::ArgParser& args) {
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig base = resolve_model(args, file);
  const model::ShapeFamilyOptions fam =
      io::codesign_from_section(args.record(file.sections, "codesign"));
  // The hardware grid is the [sweep] record; its model axis and output are
  // sweep's alone, so a model row there must name the family's base.
  const auto sweep = file.sections.find("sweep");
  if (sweep != file.sections.end() && sweep->second.count("model")) {
    const std::string listed = sweep->second.at("model");
    const auto preset = model::preset_by_name(listed);
    require(preset && preset->name == base.name,
            "[sweep] model = " + listed + " is not the family's base " +
                base.name + "; set the base with --model or [model]");
  }
  const SweepGrid grid =
      sweep_grid(io::sweep_from_section(args.record(file.sections, "sweep")));
  search::CodesignOptions opts;
  opts.sweep.threads = static_cast<unsigned>(args.integer("threads"));
  opts.sweep.warm_start = !args.has("no-warm-start");
  opts.prune_shapes = !args.has("no-prune-shapes");
  const bool verify = args.has("verify-per-shape");
  const std::string csv = args.value("csv").text;
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
        "enumerations=%zu  candidates=%zu  evaluated=%zu  "
        "bound-pruned=%zu  subtree-pruned=%zu  placement-floor-pruned=%zu  "
        "warm-seeds=%zu/%zu\n",
        st.enumerations, st.candidates, st.evaluated,
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

Work serve_plan_cmd(const io::ArgParser& args) {
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig mdl = resolve_model(args, file);
  const hw::SystemConfig sys = system_of(args, file);
  const core::ServingSpec spec =
      io::serving_from_section(args.record(file.sections, "serving"));
  const bool show_all = args.has("all");
  const std::string csv = args.value("csv").text;

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

Work plan_cmd(const io::ArgParser& args) {
  const auto& pos = args.positional();
  require(pos.empty(), "unexpected operand '" +
                           (pos.empty() ? "" : pos.front()) + "'");
  const io::LoadedConfig file = load_config(args);
  const model::TransformerConfig mdl = resolve_model(args, file);
  const hw::SystemConfig sys = system_of(args, file);

  search::SearchOptions opts;
  opts.global_batch = args.integer("batch");
  opts.top_k = static_cast<std::size_t>(args.integer("top"));
  opts.eval.tp_overlap = args.real("tp-overlap");
  opts.eval.activation_offload = args.real("offload");
  const double tokens = args.real("tokens");
  const double samples = args.real("samples");
  const double rate = args.real("rate");

  const std::string strat = args.value("strategy").text;
  std::vector<parallel::TpStrategy> strategies = {
      parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
      parallel::TpStrategy::Summa2D};
  if (strat != "all") strategies = {*parallel::strategy_by_name(strat)};
  if (args.has("interleave")) opts.interleave_candidates = {1, 2, 4, 8};
  opts.allow_zero3 = args.has("zero3");
  opts.eval.activation_recompute = args.has("recompute");
  // --plan PATH, loaded only once its schema lint finds no error.
  std::optional<io::LoadedPlan> plan;
  if (const auto path = args.given("plan")) {
    reject_errors(io::lint_config_file(path->text));
    plan = io::load_plan_file(path->text);
  }
  const std::string save_plan = args.value("save-plan").text;
  const bool want_ops = args.has("ops");
  const bool want_sens = args.has("sensitivity");
  const std::string csv = args.value("csv").text;
  const std::string markdown = args.value("markdown").text;

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

/// A command's own flag: row key and flag name are both `name`.
io::Row flag(const char* name, io::Kind kind, const char* help,
             io::Domain domain = {}, const char* fallback = nullptr,
             analysis::RuleId rule = analysis::RuleId::kConfigValue) {
  return {name, kind, domain, fallback, 1.0, rule, false, name, help};
}

/// `own` rows, then the row flags of each of `records`, then --help.
std::vector<io::Row> rows(std::vector<io::Row> own,
                          const std::vector<std::string>& records) {
  for (const std::string& record : records) {
    for (const io::Row& r : io::find_schema(record)->rows) {
      if (r.flag) own.push_back(r);
    }
  }
  own.push_back(flag("help", io::Kind::kBool, "print this help"));
  return own;
}

bool is_model(const std::string& name) {
  return name == "custom" || model::preset_by_name(name).has_value();
}

const std::vector<Command>& commands() {
  using enum io::Kind;
  using io::at_least;
  using io::names;
  constexpr auto kDomain = analysis::RuleId::kSystemDomain;  // lint_system's
  static const std::string models =
      util::join(model::preset_names(), "|") + "|custom";
  const auto model_row = [](const char* help, const char* preset) {
    return flag("model", kName, help, names(models.c_str(), is_model), preset);
  };
  const io::Row threads =
      flag("threads", kInt, "worker threads, 0 = hardware concurrency",
           io::range(0, 1024), "0");
  static const std::vector<Command> all{
      {"plan",
       "usage: tfpe [plan] [--model NAME | --config PATH] [options]\n"
       "       tfpe sweep|codesign|serve-plan|lint ... (see tfpe CMD --help)\n"
       "\n"
       "The optimal configuration of one model on one system per strategy; a\n"
       "--config [system] replaces the --gpu/--nvs/--gpus defaults. Exit\n"
       "codes: 0 ok, 1 infeasible or a failed check, 2 usage or bad input.\n",
       rows({model_row("model preset, or custom from the --l/--e/... rows",
                       "gpt3-1t"),
             flag("config", kString,
                  "load [model] and/or [system] from a file"),
             flag("gpu", kName, "GPU generation", names("a100|h200|b200"),
                  "b200"),
             flag("nvs", kInt, "fast-domain size", at_least(1), "8", kDomain),
             flag("gpus", kInt, "total GPUs", at_least(1), "1024", kDomain),
             flag("strategy", kName, "tensor-parallel strategy",
                  names("1d|2d|summa|all"), "1d"),
             flag("batch", kInt, "global batch", at_least(1), "4096"),
             flag("top", kInt, "also print the N best", at_least(0), "0"),
             flag("interleave", kBool, "allow interleaved pipeline schedules"),
             flag("zero3", kBool, "allow ZeRO-3 weight sharding"),
             flag("tp-overlap", kReal, "hidden fraction of TP communication",
                  io::range(0, 1), "0"),
             flag("offload", kReal, "fraction of activations offloaded to host",
                  io::range(0, 1), "0"),
             flag("recompute", kBool, "full activation checkpointing"),
             flag("plan", kString,
                  "evaluate a saved plan instead of searching"),
             flag("save-plan", kString,
                  "write the best configuration as a plan file"),
             flag("rate", kReal,
                  "$/GPU-hour for cost estimates (--tokens/--samples)",
                  at_least(0), "0"),
             flag("tokens", kReal, "report days to train on X tokens",
                  at_least(0), "0"),
             flag("samples", kReal, "report days to train on X samples",
                  at_least(0), "0"),
             flag("ops", kBool, "per-op roofline report for the optimum"),
             flag("sensitivity", kBool,
                  "hardware elasticities (re-searches 12 designs)"),
             flag("csv", kString, "write results as CSV"),
             flag("markdown", kString, "write a Markdown report")},
            {"model"}),
       plan_cmd},
      {"sweep",
       "usage: tfpe sweep SPEC [options]\n"
       "\n"
       "The optimal configuration at every point of the spec's [sweep] cross\n"
       "product (model x gpu x nvs x oversub x gpus x strategy x batch), one\n"
       "CSV row per point. The spec is schema-linted first (docs/API.md).\n",
       rows({flag("output", kString, "CSV path, else the spec's output"),
             threads,
             flag("warm-start", kBool,
                  "seed incumbents along each chain (throughput only)"),
             flag("profile-stages", kBool,
                  "per-stage busy seconds and their overlap"),
             flag("verify-legacy", kBool,
                  "exit 1 unless find_optimal agrees bitwise on every row"),
             flag("ablate-topology", kBool,
                  "exit 1 unless a degenerate 3-level fabric agrees")},
            {}),
       sweep_cmd},
      {"codesign",
       "usage: tfpe codesign [--model NAME | --config PATH] [options]\n"
       "\n"
       "Per point of the [sweep] hardware grid (its model axis is tfpe\n"
       "sweep's), the best (shape, parallelization, placement) over every\n"
       "shape within the [codesign] band of the base model's parameters,\n"
       "bitwise equal to find_optimal; floor-bound shapes are pruned whole.\n",
       rows({model_row("base preset the family is iso to", "gpt3-1t"),
             flag("config", kString, "load [model], [codesign] and [sweep]"),
             threads,
             flag("no-prune-shapes", kBool,
                  "scan every (shape, point) pair, no floor pruning"),
             flag("no-warm-start", kBool, "cold incumbents (A/B baseline)"),
             flag("verify-per-shape", kBool,
                  "exit 1 unless find_optimal agrees, no pruned pair wins"),
             flag("csv", kString, "write per-point winners as CSV")},
            {"model", "codesign", "sweep"}),
       codesign_cmd},
      {"serve-plan",
       "usage: tfpe serve-plan [--model NAME | --config PATH] [options]\n"
       "\n"
       "The latency/throughput Pareto front of serving replica shapes (tp x\n"
       "pp x resident batch) under continuous batching, each holding its KV\n"
       "cache inside the HBM cap; a batch is clipped to what fits.\n",
       rows({model_row("model preset, or custom from the --l/--e/... rows",
                       "llama3-405b"),
             flag("config", kString, "load [model], [system] and [serving]"),
             flag("gpu", kName, "GPU generation", names("a100|h200|b200"),
                  "h200"),
             flag("nvs", kInt, "fast-domain size", at_least(1), "8", kDomain),
             flag("gpus", kInt, "total GPUs, for the replica-count line",
                  at_least(1), "8", kDomain),
             flag("all", kBool,
                  "print every feasible point, not just the front"),
             flag("csv", kString, "write the evaluated grid as CSV")},
            {"model", "serving"}),
       serve_plan_cmd},
      {"lint",
       "usage: tfpe lint [PATH] [options]\n"
       "\n"
       "Diagnostics with stable rule IDs (docs/API.md) on a .tfpe file,\n"
       "schema first, or with no PATH on the preset x strategy matrix and the\n"
       "default sweep plan. Exit codes: 0 clean, 1 errors, 2 usage or\n"
       "unparseable input, 3 warnings under --strict.\n",
       rows({model_row("model preset a [plan] applies to", "gpt3-1t"),
             flag("batch", kInt,
                  "plan's global batch, else its own (no PATH: 2 per GPU)",
                  at_least(1)),
             flag("format", kName, "report format", names("text|json|sarif"),
                  "text"),
             flag("strict", kBool, "warnings also fail (exit 3)"),
             flag("suppress", kNames, "rule codes or names to disable",
                  names("a rule code or name", [](const std::string& c) {
                    return analysis::find_rule(c).has_value();
                  }))},
            {"model"}),
       lint_cmd}};
  return all;
}

}  // namespace

std::vector<std::pair<std::string, std::vector<io::Row>>> flag_tables() {
  std::vector<std::pair<std::string, std::vector<io::Row>>> out;
  for (const Command& cmd : commands()) out.emplace_back(cmd.name, cmd.rows);
  return out;
}

int run(int argc, const char* const* argv) {
  // The command is the first argument when it names one, else plan.
  const auto& all = commands();
  auto cmd = std::find_if(all.begin(), all.end(), [&](const Command& c) {
    return argc > 1 && c.name == argv[1];
  });
  const int skip = cmd != all.end();
  if (cmd == all.end()) cmd = all.begin();
  try {
    const io::ArgParser args(cmd->rows, argc - skip, argv + skip);
    if (args.has("help")) {
      std::cerr << help_text(*cmd);
      return 0;
    }
    const Work work = cmd->prologue(args);
    const auto stray = args.unused();
    if (!stray.empty()) return usage(*cmd, "unknown flag --" + stray.front());
    return work();
  } catch (const Rejected& rejected) {
    std::cerr << analysis::render_text(rejected.report) << "\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    return usage(*cmd, e.what());
  } catch (const std::runtime_error& e) {
    return usage(*cmd, e.what());
  }
}

}  // namespace tfpe::cli
