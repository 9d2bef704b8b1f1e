#include "analysis/consistency.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tfpe::analysis {

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string op_name(std::size_t i) { return "op[" + std::to_string(i) + "]"; }
std::string req_name(std::size_t r) {
  return "comm[" + std::to_string(r) + "]";
}

}  // namespace

LintReport lint_batched(const parallel::LayerCost& layer,
                        const core::BatchedSignature& bat,
                        const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  const std::size_t n = layer.ops.size();
  std::size_t nc = 0;
  for (const ops::Op& op : layer.ops) {
    nc += op.fwd_comm.size() + op.bwd_comm.size();
  }

  const auto shape = [&](const std::string& op, double expected,
                         double actual, const std::string& what) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(RuleId::kBatchedShape, op, expected, actual, msg.str());
  };

  // --- batched-shape: one slot per layer op, one pool entry per request,
  // head columns of one length. ---
  const auto sized = [&](std::size_t want, const std::string& what,
                         std::initializer_list<std::size_t> columns) {
    for (const std::size_t got : columns) {
      if (got != want) {
        shape("<batch>", static_cast<double>(want), static_cast<double>(got),
              what + " column length");
        return false;
      }
    }
    return true;
  };
  if (!sized(n, "per-op",
             {bat.fwd_flops.size(), bat.bwd_flops.size(), bat.fwd_bytes.size(),
              bat.bwd_bytes.size(), bat.panels.size(), bat.tensor_core.size(),
              bat.fwd_comm_begin.size(), bat.fwd_comm_count.size(),
              bat.bwd_comm_begin.size(), bat.bwd_comm_count.size()}) ||
      !sized(nc, "comm pool",
             {bat.comm_kind.size(), bat.comm_group.size(),
              bat.comm_panel_bytes.size(), bat.comm_price_row.size()}) ||
      !sized(bat.head_fwd_flops.size(), "head",
             {bat.head_bwd_flops.size(), bat.head_fwd_bytes.size(),
              bat.head_bwd_bytes.size(), bat.head_tensor_core.size()})) {
    return sink.take();  // Element checks would index out of bounds.
  }

  // --- batched-shape: each slot is its op's operands (bitwise), and each
  // op's forward then backward requests fill its pool range, in op order.
  // --- batched-panel-scale: each request's pre-scaled volume is the exact
  // req.bytes * (1 / panels) product core::op_time feeds to
  // collective_time.
  std::size_t pool = 0;
  std::vector<std::uint32_t> want_summa;
  for (std::size_t i = 0; i < n; ++i) {
    const ops::Op& op = layer.ops[i];
    const std::int64_t panels = std::max<std::int64_t>(1, op.summa_panels);
    if (panels > 1) want_summa.push_back(static_cast<std::uint32_t>(i));
    const auto mirror = [&](double want, double got, const char* what) {
      if (bits(want) != bits(got)) {
        shape(op_name(i), want, got, std::string(what) + " differs");
      }
    };
    mirror(op.fwd_flops.value(), bat.fwd_flops[i].value(), "fwd flops");
    mirror(op.bwd_flops.value(), bat.bwd_flops[i].value(), "bwd flops");
    mirror(op.fwd_bytes.value(), bat.fwd_bytes[i].value(), "fwd bytes");
    mirror(op.bwd_bytes.value(), bat.bwd_bytes[i].value(), "bwd bytes");
    mirror(static_cast<double>(panels), static_cast<double>(bat.panels[i]),
           "panel count");
    mirror(op.unit == ops::ComputeUnit::TensorCore ? 1.0 : 0.0,
           bat.tensor_core[i], "tensor-core flag");
    const double inv_panels = 1.0 / static_cast<double>(panels);
    const auto requests = [&](const ops::CommList& list, std::uint32_t begin,
                              std::uint32_t count, const char* what) {
      if (begin != pool || count != list.size()) {
        shape(op_name(i), static_cast<double>(pool),
              static_cast<double>(begin), std::string(what) + " comm range");
      }
      for (const ops::CommRequest& req : list) {
        if (bat.comm_kind[pool] != req.collective ||
            bat.comm_group[pool] != static_cast<std::uint8_t>(req.group)) {
          shape(req_name(pool), static_cast<double>(req.collective),
                static_cast<double>(bat.comm_kind[pool]),
                "collective or group differs from the op graph");
        }
        const double want = (req.bytes * inv_panels).value();
        const double got = bat.comm_panel_bytes[pool].value();
        if (bits(want) != bits(got)) {
          std::ostringstream msg;
          msg << "pre-scaled panel volume is " << got
              << " B, scalar path feeds " << want << " B to collective_time";
          sink.emit(RuleId::kBatchedPanelScale, req_name(pool), want, got,
                    msg.str());
        }
        ++pool;
      }
    };
    requests(op.fwd_comm, bat.fwd_comm_begin[i], bat.fwd_comm_count[i],
             "forward");
    requests(op.bwd_comm, bat.bwd_comm_begin[i], bat.bwd_comm_count[i],
             "backward");
  }

  // --- batched-price-row: the dedup preserves the request multiset: each
  // row's representative maps back to it, and each request maps to a row
  // whose representative carries its exact (collective, group, volume).
  for (std::size_t u = 0; u < bat.price_rep.size(); ++u) {
    const std::uint32_t rep = bat.price_rep[u];
    if (rep >= nc || bat.comm_price_row[rep] != u) {
      sink.emit(RuleId::kBatchedPriceRow, "row[" + std::to_string(u) + "]",
                static_cast<double>(u), static_cast<double>(rep),
                "row representative is not a request of its own row");
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    const std::uint32_t u = bat.comm_price_row[r];
    const std::size_t rep = u < bat.price_rep.size() ? bat.price_rep[u] : nc;
    if (rep >= nc || bat.comm_kind[rep] != bat.comm_kind[r] ||
        bat.comm_group[rep] != bat.comm_group[r] ||
        bits(bat.comm_panel_bytes[rep].value()) !=
            bits(bat.comm_panel_bytes[r].value())) {
      std::ostringstream msg;
      msg << "request maps to pricing row " << u
          << ", which prices a different (collective, group, volume) triple"
             " or none — the dedup no longer preserves the request multiset";
      sink.emit(RuleId::kBatchedPriceRow, req_name(r), static_cast<double>(u),
                static_cast<double>(rep), msg.str());
    }
  }

  // --- batched-group-mask: bit g set iff group g appears in the pool. ---
  std::uint8_t want_mask = 0;
  for (const std::uint8_t g : bat.comm_group) {
    want_mask |= static_cast<std::uint8_t>(1u << g);
  }
  if (want_mask != bat.comm_groups_mask) {
    std::ostringstream msg;
    msg << "comm_groups_mask is 0x" << std::hex
        << static_cast<unsigned>(bat.comm_groups_mask)
        << ", pool contains groups 0x" << static_cast<unsigned>(want_mask)
        << " — the comm-block memo would key on the wrong columns";
    sink.emit(RuleId::kBatchedGroupMask, "<batch>",
              static_cast<double>(want_mask),
              static_cast<double>(bat.comm_groups_mask), msg.str());
  }

  // --- batched-summa-ops: exactly the panels>1 ops, in op order. ---
  if (want_summa != bat.summa_ops) {
    sink.emit(RuleId::kBatchedSummaOps, "<batch>",
              static_cast<double>(want_summa.size()),
              static_cast<double>(bat.summa_ops.size()),
              "summa_ops does not list exactly the panels>1 ops in op "
              "order");
  }

  return sink.take();
}

LintReport lint_batch_scratch(const core::BatchedSignature& bat,
                              const core::BatchScratch& scratch,
                              std::size_t n_placements,
                              const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  const auto diag = [&](const std::string& op, double expected, double actual,
                        const std::string& what) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(RuleId::kBatchedScratchShape, op, expected, actual, msg.str());
  };

  // Column maps: one entry per placement, each indexing a distinct-nvs slot.
  // Only the groups the pool actually uses are columned (unused groups may
  // carry stale state; the kernel never reads them).
  for (std::size_t g = 0; g < 4; ++g) {
    if (!(bat.comm_groups_mask & (1u << g))) continue;
    const std::string name = "group[" + std::to_string(g) + "]";
    if (scratch.nvs_column[g].size() != n_placements) {
      diag(name, static_cast<double>(n_placements),
           static_cast<double>(scratch.nvs_column[g].size()),
           "nvs_column length");
      continue;
    }
    for (std::uint32_t col : scratch.nvs_column[g]) {
      if (col >= scratch.distinct_nvs[g].size()) {
        diag(name, static_cast<double>(scratch.distinct_nvs[g].size()), col,
             "column index past the distinct-nvs list");
        break;
      }
    }
  }

  // Row offsets: one per pricing row, prefix sums of the column counts.
  if (scratch.row_offset.size() != bat.price_rep.size()) {
    diag("<scratch>", static_cast<double>(bat.price_rep.size()),
         static_cast<double>(scratch.row_offset.size()),
         "row_offset length (one per pricing row)");
    return sink.take();
  }
  std::size_t cells = 0;
  for (std::size_t u = 0; u < scratch.row_offset.size(); ++u) {
    if (scratch.row_offset[u] != cells) {
      diag("row[" + std::to_string(u) + "]", static_cast<double>(cells),
           static_cast<double>(scratch.row_offset[u]),
           "row offset breaks the prefix-sum layout");
      return sink.take();
    }
    cells += scratch.distinct_nvs[bat.comm_group[bat.price_rep[u]]].size();
  }
  if (scratch.comm_table.size() != cells) {
    diag("<scratch>", static_cast<double>(cells),
         static_cast<double>(scratch.comm_table.size()),
         "comm_table cell count");
  }
  if (scratch.cell_epoch.size() != cells) {
    diag("<scratch>", static_cast<double>(cells),
         static_cast<double>(scratch.cell_epoch.size()),
         "cell_epoch stamp count");
  }
  // Pre-walked placements: one per distinct-nvs column of every group the
  // pool actually uses (unused groups may carry stale state; the kernel
  // never reads them).
  for (std::size_t g = 0; g < 4; ++g) {
    if (!(bat.comm_groups_mask & (1u << g))) continue;
    if (scratch.placed[g].size() != scratch.distinct_nvs[g].size()) {
      diag("group[" + std::to_string(g) + "]",
           static_cast<double>(scratch.distinct_nvs[g].size()),
           static_cast<double>(scratch.placed[g].size()),
           "placed-group count out of step with the distinct-nvs list");
    }
  }
  if (scratch.block_keys.size() != scratch.blocks.size()) {
    diag("<scratch>", static_cast<double>(scratch.blocks.size()),
         static_cast<double>(scratch.block_keys.size()),
         "comm-block memo keys out of step with its entries");
  }
  return sink.take();
}

LintReport lint_system(const hw::SystemConfig& sys, const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  const auto diag = [&](RuleId rule, const std::string& op, double expected,
                        double actual, const std::string& what) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(rule, op, expected, actual, msg.str());
  };
  const std::string gpu = sys.gpu.name.empty() ? "<gpu>" : sys.gpu.name;

  if (!(sys.gpu.tensor_flops > FlopsPerSec(0))) {
    diag(RuleId::kSystemCompute, gpu, 1.0, sys.gpu.tensor_flops.value(),
         "tensor-core rate must be > 0");
  }
  if (!(sys.gpu.vector_flops > FlopsPerSec(0))) {
    diag(RuleId::kSystemCompute, gpu, 1.0, sys.gpu.vector_flops.value(),
         "vector rate must be > 0");
  }
  if (sys.gpu.flops_latency < Seconds(0)) {
    diag(RuleId::kSystemCompute, gpu, 0.0, sys.gpu.flops_latency.value(),
         "kernel launch latency must be >= 0");
  }
  if (!(sys.gpu.hbm_bandwidth > BytesPerSec(0))) {
    diag(RuleId::kSystemCompute, gpu, 1.0, sys.gpu.hbm_bandwidth.value(),
         "HBM bandwidth must be > 0");
  }
  if (!(sys.gpu.hbm_capacity > Bytes(0))) {
    diag(RuleId::kSystemCompute, gpu, 1.0, sys.gpu.hbm_capacity.value(),
         "HBM capacity must be > 0");
  }

  if (!(sys.net.nvs_bandwidth > BytesPerSec(0))) {
    diag(RuleId::kSystemNetwork, "<net>", 1.0, sys.net.nvs_bandwidth.value(),
         "NVS bandwidth must be > 0");
  }
  if (!(sys.net.ib_bandwidth > BytesPerSec(0))) {
    diag(RuleId::kSystemNetwork, "<net>", 1.0, sys.net.ib_bandwidth.value(),
         "IB bandwidth must be > 0");
  }
  if (sys.net.nvs_latency < Seconds(0)) {
    diag(RuleId::kSystemNetwork, "<net>", 0.0, sys.net.nvs_latency.value(),
         "fast-domain hop latency must be >= 0");
  }
  if (sys.net.ib_latency < Seconds(0)) {
    diag(RuleId::kSystemNetwork, "<net>", 0.0, sys.net.ib_latency.value(),
         "slow-domain hop latency must be >= 0");
  }
  if (!(sys.net.nics_per_gpu > 0.0)) {
    diag(RuleId::kSystemNetwork, "<net>", 1.0, sys.net.nics_per_gpu,
         "NIC rail count must be > 0");
  }
  if (!(sys.net.efficiency > 0.0) || sys.net.efficiency > 1.0) {
    diag(RuleId::kSystemNetwork, "<net>", 0.7, sys.net.efficiency,
         "network efficiency must be in (0, 1]");
  }
  if (sys.net.oversubscription < 1.0) {
    diag(RuleId::kSystemNetwork, "<net>", 1.0, sys.net.oversubscription,
         "oversubscription ratio must be >= 1");
  }

  if (sys.n_gpus < 1) {
    diag(RuleId::kSystemDomain, "<system>", 1.0,
         static_cast<double>(sys.n_gpus), "GPU count must be >= 1");
  }
  if (sys.nvs_domain < 1) {
    diag(RuleId::kSystemDomain, "<system>", 1.0,
         static_cast<double>(sys.nvs_domain), "NVS domain must be >= 1");
  } else if (sys.n_gpus >= 1 && sys.n_gpus % sys.nvs_domain != 0) {
    diag(RuleId::kSystemDomain, "<system>", 0.0,
         static_cast<double>(sys.n_gpus % sys.nvs_domain),
         "NVS domain must divide the GPU count");
  }
  if (!(sys.host_bandwidth > BytesPerSec(0))) {
    diag(RuleId::kSystemDomain, "<system>", 1.0, sys.host_bandwidth.value(),
         "host link bandwidth must be > 0");
  }

  const hw::Topology fabric = sys.resolved_fabric();
  sink.merge(lint_topology(fabric, sys.n_gpus, opts));
  // The search places groups within nvs_domain GPUs and times them on the
  // fabric, whose collectives reject a span past its leaf fan-in.
  const std::int64_t leaf = fabric.leaf_fan_in();
  if (leaf > 0 && leaf != sys.nvs_domain) {
    diag(RuleId::kTopologyLeafDomain, "<topology>",
         static_cast<double>(sys.nvs_domain), static_cast<double>(leaf),
         "fabric leaf fan-in must equal the NVS domain");
  }
  return sink.take();
}

LintReport lint_system(const hw::SystemConfig& sys,
                       const core::CostSignature& sig,
                       const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  sink.merge(lint_system(sys, opts));
  // Static residency floor: weights + gradients + optimizer are resident
  // regardless of recompute/offload settings; exceeding HBM capacity means
  // no EvalOptions can make this (signature, system) bind fit.
  const Bytes floor = sig.mem.weights + sig.mem.gradients + sig.mem.optimizer;
  if (sys.gpu.hbm_capacity > Bytes(0) && floor > sys.gpu.hbm_capacity) {
    std::ostringstream msg;
    msg << "static residency (weights+gradients+optimizer) is "
        << floor.value() << " B, HBM capacity is "
        << sys.gpu.hbm_capacity.value()
        << " B — no recompute or offload setting can fit this bind";
    sink.emit(RuleId::kSystemHbmFloor,
              sys.gpu.name.empty() ? "<gpu>" : sys.gpu.name,
              sys.gpu.hbm_capacity.value(), floor.value(), msg.str());
  }
  return sink.take();
}

void assert_batched_invariants(const parallel::LayerCost& layer,
                               const core::BatchedSignature& bat) {
  const LintReport report = lint_batched(layer, bat);
  if (report.errors() > 0) {
    throw std::logic_error("batched lowering invariants violated:\n" +
                           report.summary());
  }
}

}  // namespace tfpe::analysis
