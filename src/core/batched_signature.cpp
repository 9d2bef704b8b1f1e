#include "core/batched_signature.hpp"

#include <algorithm>
#include <optional>

#ifndef NDEBUG
#include <stdexcept>

#include "analysis/consistency.hpp"
#endif
#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

/// Placement-tuple slot holding each comm group's nvs: the enumerated
/// tuples are (nvs1, nvs2, nvsp, nvsd) while the CommGroup index order is
/// (TP1, TP2, DP, PP).
constexpr std::array<std::size_t, 4> kGroupSlot = {0, 1, 3, 2};

/// The exposed-communication op walk of the kernel and the placement floor,
/// evaluate_with_layer's statement for statement: per op pass the request
/// sum and SUMMA panel exposure, per op the (1 - tp_overlap) scaling and
/// the recompute re-run. `request_time(r)` is request r's priced cell in
/// the kernel, its pricing row's floor in the screen. Forced inline: inlined
/// late, the walk kept reloading the kernel's table pointers through the
/// closure (+1.3% codesign request_cost).
template <class RequestTime>
[[gnu::always_inline]] inline CommWalk comm_walk(const BatchedSignature& bat,
                   const std::vector<std::array<Seconds, 2>>& summa_panel_time,
                   const EvalOptions& opts, const RequestTime& request_time) {
  const auto exposed = [&](std::uint32_t begin, std::uint32_t count,
                           std::int64_t panels, Seconds t_panel) {
    Seconds t;
    for (std::uint32_t r = begin; r < begin + count; ++r) t += request_time(r);
    if (panels == 1) return t;
    return t + std::max(Seconds(0), t - t_panel) *
                   static_cast<double>(panels - 1);
  };
  CommWalk w;
  std::size_t summa = 0;
  for (std::size_t i = 0; i < bat.op_count(); ++i) {
    const std::int64_t panels = bat.panels[i];
    std::array<Seconds, 2> panel{};
    if (panels > 1) panel = summa_panel_time[summa++];
    Seconds f_comm, b_comm;
    if (bat.fwd_comm_count[i] > 0) {
      f_comm = exposed(bat.fwd_comm_begin[i], bat.fwd_comm_count[i], panels,
                       panel[0]);
    }
    if (bat.bwd_comm_count[i] > 0) {
      b_comm = exposed(bat.bwd_comm_begin[i], bat.bwd_comm_count[i], panels,
                       panel[1]);
    }
    if (panels <= 1 && opts.tp_overlap > 0) {
      f_comm *= 1.0 - opts.tp_overlap;
      b_comm *= 1.0 - opts.tp_overlap;
    }
    w.fwd_comm += f_comm;
    w.bwd_comm += b_comm;
    if (opts.activation_recompute) w.bwd_comm += f_comm;
  }
  return w;
}

/// A walk's stage times, tp_comm and bubble under the candidate's tail and
/// bound timing — shared by the kernel's comm blocks and the floor's tail.
BatchScratch::CommBlock stage_terms(const CommWalk& walk,
                                    const SignatureTail& sig,
                                    const BatchedSignature& bat,
                                    const SystemTiming& base,
                                    const parallel::ParallelConfig& cfg) {
  const double Ld = static_cast<double>(sig.layers_per_stage);
  const double md = static_cast<double>(sig.microbatches);
  BatchScratch::CommBlock blk;
  blk.t_fwd_stage = (base.fwd_cm + walk.fwd_comm) * Ld;
  blk.t_bwd_stage = (base.bwd_cm + walk.bwd_comm) * Ld;
  if (bat.has_head()) {
    blk.t_fwd_stage += base.head_fwd_cm;
    blk.t_bwd_stage += base.head_bwd_cm;
  }
  blk.tp_comm = ((walk.fwd_comm + walk.bwd_comm) * (md * Ld)).value();
  blk.bubble = pipeline::bubble_time(cfg.np, blk.t_fwd_stage, blk.t_bwd_stage,
                                     cfg.interleave)
                   .value();
  return blk;
}

}  // namespace

BlockTiming bind_block(const BatchedSignature& bat, const hw::SystemConfig& sys,
                       const EvalOptions& opts) {
  BlockTiming bt;
  const std::size_t n = bat.op_count();
  for (std::size_t i = 0; i < n; ++i) {
    const bool tc = bat.tensor_core[i] != 0;
    const PanelRoofline f = panel_roofline(bat.fwd_flops[i], bat.fwd_bytes[i],
                                           bat.panels[i], tc, sys.gpu);
    const PanelRoofline b = panel_roofline(bat.bwd_flops[i], bat.bwd_bytes[i],
                                           bat.panels[i], tc, sys.gpu);
    bt.fwd_c += f.compute;
    bt.fwd_m += f.memory;
    bt.bwd_c += b.compute;
    bt.bwd_m += b.memory;
    if (opts.activation_recompute) {
      bt.bwd_c += f.compute;
      bt.bwd_m += f.memory;
    }
    if (bat.panels[i] > 1) bt.summa_panel_time.push_back({f.t_panel, b.t_panel});
  }

  if (opts.activation_offload > 0) {
    const Seconds per_micro = bat.stored_activation_bytes *
                              (2.0 * opts.activation_offload) /
                              sys.host_bandwidth;
    bt.fwd_m += per_micro * 0.5;
    bt.bwd_m += per_micro * 0.5;
  }

  const std::size_t h = bat.head_fwd_flops.size();
  for (std::size_t i = 0; i < h; ++i) {
    const bool tc = bat.head_tensor_core[i] != 0;
    const PanelRoofline f = panel_roofline(bat.head_fwd_flops[i],
                                           bat.head_fwd_bytes[i], 1, tc,
                                           sys.gpu);
    const PanelRoofline b = panel_roofline(bat.head_bwd_flops[i],
                                           bat.head_bwd_bytes[i], 1, tc,
                                           sys.gpu);
    bt.head_fwd_c += f.compute;
    bt.head_fwd_m += f.memory;
    bt.head_bwd_c += b.compute;
    bt.head_bwd_m += b.memory;
  }
  return bt;
}

void finish_bind(const BlockTiming& part, const SignatureTail& sig,
                 const hw::SystemConfig& sys, SystemTiming& out) {
  const double Ld = static_cast<double>(sig.layers_per_stage);
  const double md = static_cast<double>(sig.microbatches);
  out.time_compute = (((part.fwd_c + part.bwd_c) * Ld + part.head_fwd_c +
                       part.head_bwd_c) *
                      md)
                         .value();
  out.time_memory = (((part.fwd_m + part.bwd_m) * Ld + part.head_fwd_m +
                      part.head_bwd_m) *
                     md)
                        .value();
  out.optimizer = (sig.optimizer_traffic / sys.gpu.hbm_bandwidth).value();
  out.fwd_cm = part.fwd_c + part.fwd_m;
  out.bwd_cm = part.bwd_c + part.bwd_m;
  out.head_fwd_cm = part.head_fwd_c + part.head_fwd_m;
  out.head_bwd_cm = part.head_bwd_c + part.head_bwd_m;
  out.summa_panel_time = part.summa_panel_time;
}

SystemTiming bind_system_batched(const SignatureTail& sig,
                                 const BatchedSignature& bat,
                                 const hw::SystemConfig& sys,
                                 const EvalOptions& opts) {
  SystemTiming bt;
  bt.fabric = sys.resolved_fabric();
  finish_bind(bind_block(bat, sys, opts), sig, sys, bt);
  return bt;
}

void time_placements_batch(
    const SignatureTail& sig, const BatchedSignature& bat,
    const SystemTiming& base, const hw::SystemConfig& sys,
    const parallel::ParallelConfig& cfg,
    const std::vector<std::array<std::int64_t, 4>>& placements,
    const EvalOptions& opts, std::vector<PlacementTiming>& out,
    BatchScratch* scratch, const comm::FabricPricer* pricer) {
  (void)sys;
  const std::size_t np = placements.size();
  out.clear();
  out.resize(np);
  if (np == 0) return;

  BatchScratch local;
  BatchScratch& s = scratch ? *scratch : local;
  // The transient pricer owns a deque (one allocation just to construct),
  // so it only exists on the slow path where no caller pricer was given.
  std::optional<comm::FabricPricer> transient;
  if (!pricer) {
    transient.emplace(base.fabric);
    pricer = &*transient;
  }
  const comm::FabricPricer& pr = *pricer;
  ++s.epoch;

  const std::array<std::int64_t, 4> group_size = {cfg.n1, cfg.n2, cfg.nd,
                                                  cfg.np};

  // Distinct nvs values per comm group over the placement batch, plus each
  // placement's column index — the whole point of the batch: a request is
  // priced once per (group, nvs) instead of once per placement. Only the
  // groups the pool uses are columned: the DP and P2P terms below read
  // their nvs straight off the placement tuple, so for (say) a pure-TP
  // pool three of the four per-placement scans would be dead work.
  const std::uint8_t used_groups = bat.comm_groups_mask;
  for (std::size_t g = 0; g < 4; ++g) {
    if (!(used_groups & (1u << g))) continue;
    s.distinct_nvs[g].clear();
    s.nvs_column[g].resize(np);
    for (std::size_t p = 0; p < np; ++p) {
      const std::int64_t v = placements[p][kGroupSlot[g]];
      const auto it =
          std::find(s.distinct_nvs[g].begin(), s.distinct_nvs[g].end(), v);
      std::size_t col;
      if (it == s.distinct_nvs[g].end()) {
        col = s.distinct_nvs[g].size();
        s.distinct_nvs[g].push_back(v);
      } else {
        col = static_cast<std::size_t>(it - s.distinct_nvs[g].begin());
      }
      s.nvs_column[g][p] = static_cast<std::uint32_t>(col);
    }
  }

  // Pre-place every (used group, distinct nvs) pair once: the validation,
  // clamp-and-fill placement and fabric walk that core::evaluate re-runs
  // inside every collective_time call are hoisted here, leaving each table
  // cell a handful of flops. Every column comes from an actual placement of
  // the batch, so nothing is placed speculatively.
  for (std::size_t g = 0; g < 4; ++g) {
    if (!(used_groups & (1u << g))) continue;
    const std::size_t cols = s.distinct_nvs[g].size();
    s.placed[g].resize(cols);
    for (std::size_t c = 0; c < cols; ++c) {
      s.placed[g][c] = &pr.place_ref(
          comm::GroupPlacement{group_size[g], s.distinct_nvs[g][c]});
    }
  }

  // Lay out the comm table: one row per DISTINCT pricing triple (see
  // comm_price_row — repeated per-op requests of the same volume share a
  // row), one column per distinct nvs of its group. Each cell is the exact
  // collective_time call core::evaluate makes for a placement mapping to
  // that column — priced by one contiguous pass over the pricing rows on
  // each comm-block miss (price_columns below), so columns only ever read
  // through block hits are never priced. collective_time is pure, so
  // neither the sharing nor the changed pricing order can change any
  // cell's bits.
  const std::size_t nu = bat.price_rep.size();
  s.row_offset.resize(nu);
  std::size_t cells = 0;
  for (std::size_t u = 0; u < nu; ++u) {
    s.row_offset[u] = static_cast<std::uint32_t>(cells);
    cells += s.distinct_nvs[bat.comm_group[bat.price_rep[u]]].size();
  }
  s.comm_table.resize(cells);
  s.cell_epoch.resize(cells, 0);
  // One strided pass per block miss: price placement p's column of every
  // pricing row (epoch stamps skip cells an earlier miss already priced).
  const auto price_columns = [&](std::size_t p) {
    for (std::size_t u = 0; u < nu; ++u) {
      const std::uint32_t rep = bat.price_rep[u];
      const std::size_t g = bat.comm_group[rep];
      const std::size_t col = s.nvs_column[g][p];
      const std::size_t idx = s.row_offset[u] + col;
      if (s.cell_epoch[idx] != s.epoch) {
        s.comm_table[idx] = pr.price(bat.comm_kind[rep],
                                     bat.comm_panel_bytes[rep],
                                     *s.placed[g][col]);
        s.cell_epoch[idx] = s.epoch;
      }
    }
  };
  const double md = static_cast<double>(sig.microbatches);

  // Placement-dependent but few-valued terms, memoized lazily in placement
  // order (first encounter prices; later ones reuse the identical bits).
  // The DP memo lives in the scratch so a warm scan prices allocation-free.
  std::array<Seconds, 2> p2p_value{};
  std::array<bool, 2> p2p_priced{false, false};
  s.dp_keys.clear();
  s.dp_terms.clear();

  // Comm-block memo: the op walk below reads the comm table only through
  // the columns of the groups actually present in the pool, so placements
  // agreeing on those columns produce bit-identical stage/tp/bubble terms.
  // Key on the used groups ONLY — placements differing in an unused group
  // (e.g. nvsd under a pure-TP signature) share the block.
  s.block_keys.clear();
  s.blocks.clear();

  for (std::size_t p = 0; p < np; ++p) {
    PlacementTiming& o = out[p];

    std::uint64_t key = 0;
    for (std::size_t g = 0; g < 4; ++g) {
      if (used_groups & (1u << g)) key = (key << 16) | s.nvs_column[g][p];
    }
    std::size_t bi = 0;
    for (; bi < s.block_keys.size(); ++bi) {
      if (s.block_keys[bi] == key) break;
    }
    if (bi == s.block_keys.size()) {
      // First placement on these columns: price its column of every pricing
      // row in one pass, then run the op walk — exactly the sums
      // core::evaluate computes for this placement, read from the table
      // (branch-free: every cell of p is priced) instead of priced mid-walk.
      price_columns(p);
      const CommWalk walk =
          comm_walk(bat, base.summa_panel_time, opts, [&](std::uint32_t r) {
            return s.comm_table[s.row_offset[bat.comm_price_row[r]] +
                                s.nvs_column[bat.comm_group[r]][p]];
          });
      s.blocks.push_back(stage_terms(walk, sig, bat, base, cfg));
      s.block_keys.push_back(key);
    }
    const BatchScratch::CommBlock& blk = s.blocks[bi];
    const Seconds t_fwd_stage = blk.t_fwd_stage;
    const Seconds t_bwd_stage = blk.t_bwd_stage;
    o.t_fwd_stage = t_fwd_stage;
    o.t_bwd_stage = t_bwd_stage;

    o.time.compute = base.time_compute;
    o.time.memory = base.time_memory;
    o.time.tp_comm = blk.tp_comm;
    o.time.bubble = blk.bubble;

    const std::size_t hop_idx = placements[p][2] > 1 ? 1 : 0;
    if (!p2p_priced[hop_idx]) {
      if (cfg.np > 1) {
        p2p_value[hop_idx] = pipeline::p2p_time(
            pr,
            pr.place_ref(comm::GroupPlacement{2, hop_idx != 0 ? 2 : 1}),
            cfg.np, sig.microbatches, bat.pp_boundary_bytes, cfg.interleave);
      } else {
        p2p_value[hop_idx] = Seconds(0);
      }
      p2p_priced[hop_idx] = true;
    }
    o.time.pp_comm = p2p_value[hop_idx].value();

    std::int64_t dp_nvs = placements[p][3];
    if (bat.dp_group_includes_tp2) dp_nvs *= placements[p][1];
    if (sig.dp_size > 1) {
      std::size_t k = 0;
      for (; k < s.dp_keys.size(); ++k) {
        if (s.dp_keys[k] == dp_nvs) break;
      }
      if (k == s.dp_keys.size()) {
        const comm::FabricPricer::Placed& g =
            pr.place_ref(comm::GroupPlacement{sig.dp_size, dp_nvs});
        const Seconds t_rs =
            pr.price(ops::Collective::ReduceScatter, sig.dp_grad_bytes, g);
        const Seconds t_ag =
            pr.price(ops::Collective::AllGather, sig.dp_grad_bytes, g);
        s.dp_keys.push_back(dp_nvs);
        s.dp_terms.push_back({t_rs, t_ag});
      }
      const Seconds t_rs = s.dp_terms[k][0];
      const Seconds t_ag = s.dp_terms[k][1];
      if (cfg.zero == parallel::ZeroStage::kWeights) {
        o.time.dp_comm = ((t_ag * 2.0 + t_rs) * (0.5 * md)).value();
      } else {
        o.time.dp_comm = (std::max(Seconds(0), t_rs - t_bwd_stage) +
                          std::max(Seconds(0), t_ag - t_fwd_stage))
                             .value();
      }
    }

    o.time.optimizer = base.optimizer;
  }

#ifndef NDEBUG
  // The scratch tables were just laid out above; a shape violation here
  // means the scan read (or will next read) through the wrong cells.
  {
    const analysis::LintReport shape = analysis::lint_batch_scratch(bat, s, np);
    if (shape.errors() > 0) {
      throw std::logic_error("batched scratch invariants violated:\n" +
                             shape.summary());
    }
  }
#endif
}

double placement_floor(const SignatureTail& sig, const BatchedSignature& bat,
                       const SystemTiming& base,
                       const comm::FabricPricer& pricer,
                       const parallel::ParallelConfig& cfg,
                       const EvalOptions& opts, BatchScratch& s) {
  return finish_placement_floor(
      floor_comm_walk(bat, base.summa_panel_time, pricer.fabric(), cfg, opts,
                      s.row_floor),
      sig, bat, base, cfg);
}

CommWalk floor_comm_walk(
    const BatchedSignature& bat,
    const std::vector<std::array<Seconds, 2>>& summa_panel_time,
    const hw::Topology& fabric, const parallel::ParallelConfig& cfg,
    const EvalOptions& opts, std::vector<Seconds>& row_floor) {
  const std::array<std::int64_t, 4> group_size = {cfg.n1, cfg.n2, cfg.nd,
                                                  cfg.np};

  // One floor per pricing row, where the kernel prices one cell per
  // distinct nvs: the floor depends on the group size, never the nvs.
  const std::size_t nu = bat.price_rep.size();
  row_floor.resize(nu);
  for (std::size_t u = 0; u < nu; ++u) {
    const std::uint32_t rep = bat.price_rep[u];
    const ops::Collective kind = bat.comm_kind[rep];
    const Bytes bytes = bat.comm_panel_bytes[rep];
    Seconds floor;
    if (kind == ops::Collective::None) {
      floor = Seconds(0);
    } else if (kind == ops::Collective::PointToPoint) {
      floor = bytes / comm::best_p2p_bandwidth(fabric);
    } else {
      floor = comm::collective_time_floor(fabric,
                                          group_size[bat.comm_group[rep]],
                                          bytes);
    }
    row_floor[u] = floor;
  }
  return comm_walk(bat, summa_panel_time, opts, [&](std::uint32_t r) {
    return row_floor[bat.comm_price_row[r]];
  });
}

double finish_placement_floor(const CommWalk& walk, const SignatureTail& sig,
                              const BatchedSignature& bat,
                              const SystemTiming& base,
                              const parallel::ParallelConfig& cfg) {
  const BatchScratch::CommBlock blk = stage_terms(walk, sig, bat, base, cfg);
  TimeBreakdown t;
  t.compute = base.time_compute;
  t.memory = base.time_memory;
  t.tp_comm = blk.tp_comm;
  t.bubble = blk.bubble;
  t.optimizer = base.optimizer;
  return t.total();
}

}  // namespace tfpe::core
