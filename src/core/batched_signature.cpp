#include "core/batched_signature.hpp"

#include <algorithm>
#include <bit>
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

}  // namespace

BatchedSignature lower_batched(const CostSignature& sig) {
  BatchedSignature b;
  static_cast<BlockScalars&>(b) = sig;

  const std::size_t n = sig.ops.size();
  b.fwd_flops.reserve(n);
  b.bwd_flops.reserve(n);
  b.fwd_bytes.reserve(n);
  b.bwd_bytes.reserve(n);
  b.panels.reserve(n);
  b.tensor_core.reserve(n);
  b.fwd_comm_begin.reserve(n);
  b.fwd_comm_count.reserve(n);
  b.bwd_comm_begin.reserve(n);
  b.bwd_comm_count.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SigOp& op = sig.ops[i];
    b.fwd_flops.push_back(op.fwd_flops);
    b.bwd_flops.push_back(op.bwd_flops);
    b.fwd_bytes.push_back(op.fwd_bytes);
    b.bwd_bytes.push_back(op.bwd_bytes);
    b.panels.push_back(op.panels);
    b.tensor_core.push_back(op.tensor_core ? 1 : 0);
    b.fwd_comm_begin.push_back(op.fwd_comm_begin);
    b.fwd_comm_count.push_back(op.fwd_comm_count);
    b.bwd_comm_begin.push_back(op.bwd_comm_begin);
    b.bwd_comm_count.push_back(op.bwd_comm_count);
    if (op.panels > 1) b.summa_ops.push_back(static_cast<std::uint32_t>(i));
  }

  // Per-request volume scaled by the owning op's 1 / panels — the exact
  // product core::op_time feeds to collective_time — resolved through
  // the begin/count ranges so the packing is correct for any pool tiling.
  // A request no op range covers keeps the unit scale.
  b.comm_panel_bytes.resize(sig.comm.size());
  for (std::size_t r = 0; r < sig.comm.size(); ++r) {
    b.comm_panel_bytes[r] = sig.comm[r].bytes * 1.0;
  }
  for (const SigOp& op : sig.ops) {
    const double inv_panels = 1.0 / static_cast<double>(op.panels);
    for (std::uint32_t r = op.fwd_comm_begin;
         r < op.fwd_comm_begin + op.fwd_comm_count; ++r) {
      b.comm_panel_bytes[r] = sig.comm[r].bytes * inv_panels;
    }
    for (std::uint32_t r = op.bwd_comm_begin;
         r < op.bwd_comm_begin + op.bwd_comm_count; ++r) {
      b.comm_panel_bytes[r] = sig.comm[r].bytes * inv_panels;
    }
  }
  b.comm_kind.reserve(sig.comm.size());
  b.comm_group.reserve(sig.comm.size());
  for (const SigComm& req : sig.comm) {
    b.comm_kind.push_back(req.collective);
    b.comm_group.push_back(static_cast<std::uint8_t>(req.group));
    b.comm_groups_mask |=
        static_cast<std::uint8_t>(1u << static_cast<unsigned>(req.group));
  }

  // Dedup the pricing rows: two requests agreeing on kind, group and the
  // exact volume bits make the identical pure collective_time call, so
  // they share one table row. Bit equality (not ==) so a would-be -0.0 /
  // 0.0 collision can never alias two different calls.
  b.comm_price_row.resize(sig.comm.size());
  for (std::size_t r = 0; r < sig.comm.size(); ++r) {
    const std::uint64_t bits =
        std::bit_cast<std::uint64_t>(b.comm_panel_bytes[r].value());
    std::size_t u = 0;
    for (; u < b.price_rep.size(); ++u) {
      const std::uint32_t rep = b.price_rep[u];
      if (b.comm_kind[rep] == b.comm_kind[r] &&
          b.comm_group[rep] == b.comm_group[r] &&
          std::bit_cast<std::uint64_t>(b.comm_panel_bytes[rep].value()) ==
              bits) {
        break;
      }
    }
    if (u == b.price_rep.size()) {
      b.price_rep.push_back(static_cast<std::uint32_t>(r));
    }
    b.comm_price_row[r] = static_cast<std::uint32_t>(u);
  }

  b.head_fwd_flops.reserve(sig.head.size());
  b.head_bwd_flops.reserve(sig.head.size());
  b.head_fwd_bytes.reserve(sig.head.size());
  b.head_bwd_bytes.reserve(sig.head.size());
  b.head_tensor_core.reserve(sig.head.size());
  for (const SigHeadOp& op : sig.head) {
    b.head_fwd_flops.push_back(op.fwd_flops);
    b.head_bwd_flops.push_back(op.bwd_flops);
    b.head_fwd_bytes.push_back(op.fwd_bytes);
    b.head_bwd_bytes.push_back(op.bwd_bytes);
    b.head_tensor_core.push_back(op.tensor_core ? 1 : 0);
  }
#ifndef NDEBUG
  analysis::assert_batched_invariants(sig, b);
#endif
  return b;
}

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
  // Branch-free table read for the op walk (all cells for p are priced).
  const auto comm_cell = [&](std::uint32_t r, std::size_t p) -> Seconds {
    return s.comm_table[s.row_offset[bat.comm_price_row[r]] +
                        s.nvs_column[bat.comm_group[r]][p]];
  };

  const double Ld = static_cast<double>(sig.layers_per_stage);
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

  const std::size_t n_ops = bat.op_count();
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
      // instead of priced mid-walk.
      price_columns(p);
      Seconds fwd_comm, bwd_comm;
      std::size_t summa = 0;
      for (std::size_t i = 0; i < n_ops; ++i) {
        const std::int64_t panels = bat.panels[i];
        std::array<Seconds, 2> panel{};
        if (panels > 1) panel = base.summa_panel_time[summa++];
        Seconds f_comm, b_comm;
        if (bat.fwd_comm_count[i] > 0) {
          Seconds t_panel_comm;
          const std::uint32_t begin = bat.fwd_comm_begin[i];
          const std::uint32_t end = begin + bat.fwd_comm_count[i];
          for (std::uint32_t r = begin; r < end; ++r) {
            t_panel_comm += comm_cell(r, p);
          }
          if (panels == 1) {
            f_comm = t_panel_comm;
          } else {
            f_comm = t_panel_comm +
                     std::max(Seconds(0), t_panel_comm - panel[0]) *
                         static_cast<double>(panels - 1);
          }
        }
        if (bat.bwd_comm_count[i] > 0) {
          Seconds t_panel_comm;
          const std::uint32_t begin = bat.bwd_comm_begin[i];
          const std::uint32_t end = begin + bat.bwd_comm_count[i];
          for (std::uint32_t r = begin; r < end; ++r) {
            t_panel_comm += comm_cell(r, p);
          }
          if (panels == 1) {
            b_comm = t_panel_comm;
          } else {
            b_comm = t_panel_comm +
                     std::max(Seconds(0), t_panel_comm - panel[1]) *
                         static_cast<double>(panels - 1);
          }
        }
        if (panels <= 1 && opts.tp_overlap > 0) {
          f_comm *= 1.0 - opts.tp_overlap;
          b_comm *= 1.0 - opts.tp_overlap;
        }
        fwd_comm += f_comm;
        bwd_comm += b_comm;
        if (opts.activation_recompute) bwd_comm += f_comm;
      }

      const Seconds t_fwd_micro = (base.fwd_cm + fwd_comm) * Ld;
      const Seconds t_bwd_micro = (base.bwd_cm + bwd_comm) * Ld;
      Seconds t_fwd_stage = t_fwd_micro;
      Seconds t_bwd_stage = t_bwd_micro;
      if (bat.has_head()) {
        t_fwd_stage += base.head_fwd_cm;
        t_bwd_stage += base.head_bwd_cm;
      }
      BatchScratch::CommBlock blk;
      blk.t_fwd_stage = t_fwd_stage;
      blk.t_bwd_stage = t_bwd_stage;
      blk.tp_comm = ((fwd_comm + bwd_comm) * (md * Ld)).value();
      blk.bubble = pipeline::bubble_time(cfg.np, t_fwd_stage, t_bwd_stage,
                                         cfg.interleave)
                       .value();
      s.block_keys.push_back(key);
      s.blocks.push_back(blk);
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

FloorWalk floor_comm_walk(
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
  const auto row_sum = [&](std::uint32_t begin, std::uint32_t count) {
    Seconds t;
    for (std::uint32_t r = begin; r < begin + count; ++r) {
      t += row_floor[bat.comm_price_row[r]];
    }
    return t;
  };

  // The kernel's op walk, statement for statement, on the row floors.
  FloorWalk w;
  std::size_t summa = 0;
  for (std::size_t i = 0; i < bat.op_count(); ++i) {
    const std::int64_t panels = bat.panels[i];
    std::array<Seconds, 2> panel{};
    if (panels > 1) panel = summa_panel_time[summa++];
    Seconds f_comm, b_comm;
    if (bat.fwd_comm_count[i] > 0) {
      const Seconds t = row_sum(bat.fwd_comm_begin[i], bat.fwd_comm_count[i]);
      f_comm = panels == 1 ? t
                           : t + std::max(Seconds(0), t - panel[0]) *
                                     static_cast<double>(panels - 1);
    }
    if (bat.bwd_comm_count[i] > 0) {
      const Seconds t = row_sum(bat.bwd_comm_begin[i], bat.bwd_comm_count[i]);
      b_comm = panels == 1 ? t
                           : t + std::max(Seconds(0), t - panel[1]) *
                                     static_cast<double>(panels - 1);
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

double finish_placement_floor(const FloorWalk& walk, const SignatureTail& sig,
                              const BatchedSignature& bat,
                              const SystemTiming& base,
                              const parallel::ParallelConfig& cfg) {
  const double Ld = static_cast<double>(sig.layers_per_stage);
  const double md = static_cast<double>(sig.microbatches);
  Seconds t_fwd_stage = (base.fwd_cm + walk.fwd_comm) * Ld;
  Seconds t_bwd_stage = (base.bwd_cm + walk.bwd_comm) * Ld;
  if (bat.has_head()) {
    t_fwd_stage += base.head_fwd_cm;
    t_bwd_stage += base.head_bwd_cm;
  }
  TimeBreakdown t;
  t.compute = base.time_compute;
  t.memory = base.time_memory;
  t.tp_comm = ((walk.fwd_comm + walk.bwd_comm) * (md * Ld)).value();
  t.bubble = pipeline::bubble_time(cfg.np, t_fwd_stage, t_bwd_stage,
                                   cfg.interleave)
                 .value();
  t.optimizer = base.optimizer;
  return t.total();
}

}  // namespace tfpe::core
