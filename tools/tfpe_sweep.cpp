// tfpe-sweep — batch experiment runner: evaluates the optimal configuration
// over the cross product of sweep axes and writes one CSV row per point.
// This is the "figure factory" for user studies beyond the paper's set.
//
// Sweep spec (same syntax as model/system config files):
//
//   [sweep]
//   model = gpt3-1t, vit-64k      # presets, comma-separated
//   gpu = a100, b200
//   nvs = 4, 8, 64
//   oversub = 1, 4                # spine oversubscription (1 = two-level)
//   leaf = 64                     # leaf-pod size for oversub > 1 points
//   gpus = 1024, 4096, 16384
//   strategy = 1d, 2d, summa
//   batch = 4096
//   output = sweep.csv
//
// Usage: tfpe-sweep spec.tfpe [--output path] [--threads N] [--warm-start]
//                             [--profile-stages] [--verify-legacy]
//                             [--ablate-topology] [--arch]
//
// The spec is schema-linted first (the checks of `tfpe lint FILE`); any
// error prints the located report and exits 2 before any work.
//
// Each (model, strategy, batch, gpus) slice is one search::run_codesign
// call over its hardware axes (gpu, nvs, oversub): candidates are
// enumerated once, compiled once into hardware-invariant cost signatures,
// and re-timed per hardware point in parallel. The plain sweep passes the
// slice's model as a one-shape family. Oversubscription 1 keeps the
// canonical two-level fabric; ratios > 1 attach a three-level leaf/spine
// fabric, so the topology is swept exactly like the NVS-domain size.
// --verify-legacy re-solves every row with its own search::find_optimal
// call and exits nonzero unless every optimum is bitwise identical.
// --ablate-topology re-runs every two-level point with its fabric replaced
// by the degenerate three-level preset (leaf = nvs, no oversubscription)
// and exits nonzero unless the optima are bitwise identical — the
// golden-equivalence contract of the topology layer.
//
// --warm-start seeds each grid point's incumbent from its chain
// predecessor's optimum; it changes throughput only — every optimum stays
// bitwise identical. --profile-stages prints per-stage busy seconds
// (enumerate / compile / time) and their overlap factor.
//
// --arch adds the architecture axis: every model on the axis expands into
// its iso-parameter shape family (the spec's [codesign] section, or the
// defaults; see io/config_file.hpp), which becomes the slice's family with
// the full exact per-shape matrix (no shape pruning) — one CSV row per
// (shape, hardware point) with the shape's name in the model column; the
// CSV schema is unchanged.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "analysis/diagnostics.hpp"
#include "hw/topology.hpp"
#include "io/config_file.hpp"
#include "io/config_lint.hpp"
#include "search/codesign.hpp"
#include "search/sweep.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace {

using namespace tfpe;

int usage(const char* msg) {
  if (msg) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: tfpe-sweep spec.tfpe [--output path] [--threads N]\n"
               "                  [--warm-start] [--profile-stages]\n"
               "                  [--verify-legacy] [--ablate-topology]\n"
               "                  [--arch]\n"
               "see the header of tools/tfpe_sweep.cpp for the spec format\n";
  return 2;
}

std::optional<parallel::TpStrategy> strategy_by_name(const std::string& s) {
  if (s == "1d") return parallel::TpStrategy::TP1D;
  if (s == "2d") return parallel::TpStrategy::TP2D;
  if (s == "summa") return parallel::TpStrategy::Summa2D;
  return std::nullopt;
}

std::optional<hw::GpuGeneration> gen_by_name(const std::string& s) {
  if (s == "a100") return hw::GpuGeneration::A100;
  if (s == "h200") return hw::GpuGeneration::H200;
  if (s == "b200") return hw::GpuGeneration::B200;
  return std::nullopt;
}

/// One fully-resolved sweep point, in spec nesting order.
struct Point {
  std::string model, gpu, nvs, oversub, gpus, strategy, batch;
};

/// One CSV row: a sweep point (its model column naming the shape under
/// --arch), its optimum, and the sequence length its throughput uses.
struct Row {
  Point p;
  core::EvalResult r;
  std::int64_t seq_len = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  if (args.positional().empty()) return usage("missing sweep spec");
  const std::string& spec_path = args.positional().front();

  // Every axis value (model / gpu / strategy names, positive integers,
  // oversubscription ratios) is validated here, before any work.
  const analysis::LintReport lint = io::lint_config_file(spec_path);
  if (lint.errors() > 0) {
    std::cerr << analysis::render_text(lint) << "\n";
    return 2;
  }

  io::ConfigSections sections;
  try {
    std::ifstream in(spec_path);
    sections = io::parse_config(in);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  const auto it = sections.find("sweep");
  if (it == sections.end()) return usage("spec has no [sweep] section");
  const io::Section& spec = it->second;

  auto axis = [&](const char* key, const char* fallback) {
    const auto found = spec.find(key);
    return util::split_list(found != spec.end() ? found->second : fallback);
  };
  const auto models = axis("model", "gpt3-1t");
  const auto gpus_axis = axis("gpu", "b200");
  const auto nvs_axis = axis("nvs", "8");
  const auto oversub_axis = axis("oversub", "1");
  const auto scale_axis = axis("gpus", "1024");
  const auto strat_axis = axis("strategy", "1d");
  const auto batch_axis = axis("batch", "4096");
  const auto leaf_it = spec.find("leaf");
  const std::int64_t leaf_size =
      leaf_it != spec.end() ? std::stoll(leaf_it->second) : 64;

  std::string output = args.get_or("output", "");
  if (output.empty()) {
    const auto out_it = spec.find("output");
    output = out_it != spec.end() ? out_it->second : "sweep.csv";
  }
  const bool verify_legacy = args.has("verify-legacy");
  const bool ablate_topology = args.has("ablate-topology");
  const bool arch = args.has("arch");
  if (arch && ablate_topology) {
    return usage("--arch and --ablate-topology are mutually exclusive");
  }
  model::ShapeFamilyOptions family_opts;
  if (const auto cs = sections.find("codesign"); cs != sections.end()) {
    try {
      family_opts = io::codesign_from_section(cs->second);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  const bool warm_start = args.has("warm-start");
  const bool profile_stages = args.has("profile-stages");
  std::int64_t threads_flag = 0;
  try {
    threads_flag = args.get_int_or("threads", 0);
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (threads_flag < 0) return usage("--threads must be >= 0");
  const auto threads = static_cast<unsigned>(threads_flag);
  const auto stray = args.unused();
  if (!stray.empty()) return usage(("unknown flag --" + stray.front()).c_str());

  // Flatten the cross product in spec nesting order (the plain CSV row
  // order), and group points into hardware grids: within one (model,
  // strategy, batch, gpus) slice the gpu × nvs × oversub axes share
  // candidates and compiled signatures, so each slice is one run_codesign
  // call.
  std::vector<Point> points;
  for (const auto& model_name : models) {
    for (const auto& gpu_name : gpus_axis) {
      for (const auto& nvs_s : nvs_axis) {
        for (const auto& os_s : oversub_axis) {
          for (const auto& n_s : scale_axis) {
            for (const auto& strat_s : strat_axis) {
              for (const auto& b_s : batch_axis) {
                points.push_back(
                    {model_name, gpu_name, nvs_s, os_s, n_s, strat_s, b_s});
              }
            }
          }
        }
      }
    }
  }

  // Plain rows land at their point's index; --arch rows, one per (shape,
  // hardware point), append slice by slice in spec nesting order.
  std::vector<Row> rows(arch ? 0 : points.size());
  search::SweepStats totals;
  double sweep_seconds = 0.0;
  std::size_t mismatches = 0;
  std::size_t ablation_mismatches = 0;
  std::size_t ablation_checked = 0;

  for (const auto& model_name : models) {
    const auto mdl = model::preset_by_name(model_name);
    // The slice's shape family: the model itself, or under --arch its
    // iso-parameter family.
    std::vector<model::TransformerConfig> shapes{*mdl};
    if (arch) {
      try {
        shapes = model::shape_family(*mdl, family_opts);
      } catch (const std::exception& e) {
        return usage(e.what());
      }
      if (shapes.empty()) {
        return usage(
            ("[codesign] enumerates zero shapes around " + model_name).c_str());
      }
    }
    for (const auto& n_s : scale_axis) {
      for (const auto& strat_s : strat_axis) {
        for (const auto& b_s : batch_axis) {
          std::vector<std::size_t> slice;  // indices into `points`
          std::vector<hw::SystemConfig> grid;
          for (std::size_t i = 0; i < points.size(); ++i) {
            const Point& p = points[i];
            if (p.model != model_name || p.gpus != n_s ||
                p.strategy != strat_s || p.batch != b_s) {
              continue;
            }
            slice.push_back(i);
            // One-point call into the topology-axis grid builder so the
            // fabric attachment (oversub 1 = two-level, > 1 = leaf/spine)
            // stays in FP lockstep with search::hardware_grid.
            grid.push_back(search::hardware_grid(
                {*gen_by_name(p.gpu)}, {std::stoll(p.nvs)},
                {std::stod(p.oversub)}, std::stoll(p.gpus),
                leaf_size)[0]);
          }

          search::CodesignOptions opts;
          opts.sweep.search.strategy = *strategy_by_name(strat_s);
          opts.sweep.search.global_batch = std::stoll(b_s);
          opts.sweep.search.n_gpus = std::stoll(n_s);
          opts.sweep.threads = threads;
          opts.sweep.warm_start = warm_start;
          // Every row must be a true find_optimal result, so the full
          // per-shape matrix is kept.
          opts.prune_shapes = false;
          // --verify-legacy's reference: an independent find_optimal per
          // row, given the sweep's thread budget.
          search::SearchOptions reference = opts.sweep.search;
          reference.threads = threads;

          const auto t0 = std::chrono::steady_clock::now();
          const search::CodesignResult run =
              search::run_codesign(shapes, grid, opts);
          sweep_seconds +=
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
          const search::SweepStats& st = run.stats;
          totals.signature_compiles += st.signature_compiles;
          totals.signature_cache_hits += st.signature_cache_hits;
          totals.signature_reuses += st.signature_reuses;
          totals.batch_calls += st.batch_calls;
          totals.batch_placements += st.batch_placements;
          totals.placement_floor_pruned += st.placement_floor_pruned;
          totals.warm_seeded += st.warm_seeded;
          totals.warm_seed_feasible += st.warm_seed_feasible;
          totals.profile.enumerate_s += st.profile.enumerate_s;
          totals.profile.compile_s += st.profile.compile_s;
          totals.profile.time_s += st.profile.time_s;
          totals.profile.wall_s += st.profile.wall_s;

          for (std::size_t s = 0; s < shapes.size(); ++s) {
            for (std::size_t j = 0; j < slice.size(); ++j) {
              Row row{points[slice[j]], run.per_shape[s][j],
                      shapes[s].seq_len};
              if (arch) row.p.model = shapes[s].name;
              if (verify_legacy &&
                  !search::same_optimum(
                      row.r,
                      search::find_optimal(shapes[s], grid[j], reference)
                          .best)) {
                ++mismatches;
                std::cerr << "MISMATCH at " << row.p.model << " " << row.p.gpu
                          << " nvs" << row.p.nvs << " n" << row.p.gpus << " "
                          << row.p.strategy << " b" << row.p.batch << "\n";
              }
              if (arch) {
                rows.push_back(std::move(row));
              } else {
                rows[slice[j]] = std::move(row);
              }
            }
          }

          if (ablate_topology) {
            // Swap every two-level point's fabric for the degenerate
            // three-level preset (leaf pod = NVS domain, full bisection):
            // walking one extra level with fan-in 1 must not change a
            // single bit of the optimum.
            std::vector<hw::SystemConfig> degenerate = grid;
            std::vector<bool> swapped(grid.size(), false);
            for (std::size_t j = 0; j < grid.size(); ++j) {
              if (!grid[j].fabric.levels.empty()) continue;  // already 3-level
              degenerate[j].fabric = hw::leaf_spine_topology(
                  grid[j].net, grid[j].nvs_domain, grid[j].nvs_domain,
                  grid[j].n_gpus, 1.0);
              swapped[j] = true;
            }
            const search::SweepResult check =
                search::run_sweep(*mdl, degenerate, opts.sweep);
            for (std::size_t j = 0; j < slice.size(); ++j) {
              if (!swapped[j]) continue;
              ++ablation_checked;
              if (!search::same_optimum(rows[slice[j]].r, check.best[j])) {
                ++ablation_mismatches;
                const Point& p = points[slice[j]];
                std::cerr << "ABLATION MISMATCH at " << p.model << " "
                          << p.gpu << " nvs" << p.nvs << " n" << p.gpus
                          << " " << p.strategy << " b" << p.batch << "\n";
              }
            }
          }
        }
      }
    }
  }

  util::CsvWriter csv(output);
  csv.write_header({"model", "gpu", "nvs", "oversub", "gpus", "strategy",
                    "batch", "feasible", "config", "iter_s",
                    "tokens_per_s_per_gpu", "hbm_gb"});
  std::size_t feasible = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [p, r, seq_len] = rows[i];
    if (r.feasible) ++feasible;
    const auto n = static_cast<double>(std::stoll(p.gpus));
    const double tps =
        r.feasible ? static_cast<double>(std::stoll(p.batch)) *
                         static_cast<double>(seq_len) / r.iteration() / n
                   : 0.0;
    csv.write_row(std::vector<std::string>{
        p.model, p.gpu, p.nvs, p.oversub, p.gpus, p.strategy, p.batch,
        r.feasible ? "1" : "0", r.feasible ? r.cfg.describe() : r.reason,
        util::format_fixed(r.feasible ? r.iteration() : 0.0, 6),
        util::format_fixed(tps, 1),
        util::format_fixed(r.feasible ? r.mem.total().value() / 1e9 : 0.0,
                           2)});
    std::cout << "[" << (i + 1) << "] " << p.model << " " << p.gpu << " nvs"
              << p.nvs << " os" << p.oversub << " n" << p.gpus << " "
              << p.strategy << " b" << p.batch << ": "
              << (r.feasible ? util::format_time(r.iteration()) : "infeasible")
              << "\n";
  }

  const std::size_t n_rows = rows.size();
  std::cout << n_rows << " sweep points (" << feasible
            << " feasible) written to " << output << "\n";
  const double pps = sweep_seconds > 0.0
                         ? static_cast<double>(n_rows) / sweep_seconds
                         : 0.0;
  std::printf("%.3fs  %.1f points/s  compiles=%zu  compile-cache hit "
              "rate=%.1f%%  batch-occupancy=%.1f  placement-floor-pruned=%zu",
              sweep_seconds, pps, totals.signature_compiles,
              100.0 * totals.compile_hit_rate(), totals.batch_occupancy(),
              totals.placement_floor_pruned);
  if (warm_start) {
    std::printf("  warm-seeds=%zu/%zu", totals.warm_seed_feasible,
                totals.warm_seeded);
  }
  std::printf("\n");
  if (profile_stages) {
    std::printf(
        "stages: enumerate=%.3fs  compile=%.3fs  time=%.3fs  wall=%.3fs  "
        "overlap=%.2fx\n",
        totals.profile.enumerate_s, totals.profile.compile_s,
        totals.profile.time_s, totals.profile.wall_s,
        totals.profile.overlap());
  }
  if (verify_legacy) {
    if (mismatches != 0) {
      std::cerr << mismatches << " grid points differ between the sweep "
                << "engine and per-point find_optimal\n";
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
}
