#include "analysis/consistency.hpp"

#include <bit>
#include <cstdint>
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

LintReport lint_batched(const core::CostSignature& sig,
                        const core::BatchedSignature& bat,
                        const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  const std::size_t n = sig.ops.size();
  const std::size_t nc = sig.comm.size();

  const auto shape = [&](const std::string& op, double expected,
                         double actual, const std::string& what) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(RuleId::kBatchedShape, op, expected, actual, msg.str());
  };

  // --- batched-shape: array sizes mirror the AoS signature. ---
  bool sized_ok = true;
  const auto size_check = [&](std::size_t got, std::size_t want,
                              const std::string& what) {
    if (got != want) {
      shape("<batch>", static_cast<double>(want), static_cast<double>(got),
            what + " array length");
      sized_ok = false;
    }
  };
  size_check(bat.fwd_flops.size(), n, "fwd_flops");
  size_check(bat.bwd_flops.size(), n, "bwd_flops");
  size_check(bat.fwd_bytes.size(), n, "fwd_bytes");
  size_check(bat.bwd_bytes.size(), n, "bwd_bytes");
  size_check(bat.panels.size(), n, "panels");
  size_check(bat.tensor_core.size(), n, "tensor_core");
  size_check(bat.fwd_comm_begin.size(), n, "fwd_comm_begin");
  size_check(bat.fwd_comm_count.size(), n, "fwd_comm_count");
  size_check(bat.bwd_comm_begin.size(), n, "bwd_comm_begin");
  size_check(bat.bwd_comm_count.size(), n, "bwd_comm_count");
  size_check(bat.comm_kind.size(), nc, "comm_kind");
  size_check(bat.comm_group.size(), nc, "comm_group");
  size_check(bat.comm_panel_bytes.size(), nc, "comm_panel_bytes");
  size_check(bat.comm_price_row.size(), nc, "comm_price_row");
  size_check(bat.head_fwd_flops.size(), sig.head.size(), "head_fwd_flops");
  size_check(bat.head_bwd_flops.size(), sig.head.size(), "head_bwd_flops");
  size_check(bat.head_fwd_bytes.size(), sig.head.size(), "head_fwd_bytes");
  size_check(bat.head_bwd_bytes.size(), sig.head.size(), "head_bwd_bytes");
  size_check(bat.head_tensor_core.size(), sig.head.size(),
             "head_tensor_core");
  if (!sized_ok) return sink.take();  // Element checks would index OOB.

  // --- batched-shape: per-slot value agreement (bitwise). ---
  for (std::size_t i = 0; i < n; ++i) {
    const core::SigOp& op = sig.ops[i];
    const auto mirror = [&](double want, double got,
                            const std::string& what) {
      if (bits(want) != bits(got)) {
        shape(op_name(i), want, got, what + " differs from the signature");
      }
    };
    mirror(op.fwd_flops.value(), bat.fwd_flops[i].value(), "fwd flops");
    mirror(op.bwd_flops.value(), bat.bwd_flops[i].value(), "bwd flops");
    mirror(op.fwd_bytes.value(), bat.fwd_bytes[i].value(), "fwd bytes");
    mirror(op.bwd_bytes.value(), bat.bwd_bytes[i].value(), "bwd bytes");
    if (op.panels != bat.panels[i]) {
      shape(op_name(i), static_cast<double>(op.panels),
            static_cast<double>(bat.panels[i]), "panel count");
    }
    if ((op.tensor_core ? 1 : 0) != bat.tensor_core[i]) {
      shape(op_name(i), op.tensor_core ? 1.0 : 0.0,
            static_cast<double>(bat.tensor_core[i]), "tensor-core flag");
    }
    const auto range = [&](std::uint32_t begin, std::uint32_t count,
                           std::uint32_t want_begin, std::uint32_t want_count,
                           const std::string& what) {
      if (begin != want_begin || count != want_count) {
        shape(op_name(i), static_cast<double>(want_begin),
              static_cast<double>(begin), what + " comm range differs");
      } else if (static_cast<std::size_t>(begin) + count > nc) {
        shape(op_name(i), static_cast<double>(nc),
              static_cast<double>(begin) + count,
              what + " comm range exceeds the pool");
      }
    };
    range(bat.fwd_comm_begin[i], bat.fwd_comm_count[i], op.fwd_comm_begin,
          op.fwd_comm_count, "forward");
    range(bat.bwd_comm_begin[i], bat.bwd_comm_count[i], op.bwd_comm_begin,
          op.bwd_comm_count, "backward");
  }
  for (std::size_t r = 0; r < nc; ++r) {
    const core::SigComm& req = sig.comm[r];
    if (bat.comm_kind[r] != req.collective) {
      shape(req_name(r), static_cast<double>(req.collective),
            static_cast<double>(bat.comm_kind[r]),
            "collective kind differs from the signature");
    }
    if (bat.comm_group[r] != static_cast<std::uint8_t>(req.group)) {
      shape(req_name(r), static_cast<double>(req.group),
            static_cast<double>(bat.comm_group[r]),
            "comm group differs from the signature");
    }
  }
  for (std::size_t i = 0; i < sig.head.size(); ++i) {
    const core::SigHeadOp& op = sig.head[i];
    const std::string name = "head[" + std::to_string(i) + "]";
    if (bits(op.fwd_flops.value()) != bits(bat.head_fwd_flops[i].value()) ||
        bits(op.bwd_flops.value()) != bits(bat.head_bwd_flops[i].value()) ||
        bits(op.fwd_bytes.value()) != bits(bat.head_fwd_bytes[i].value()) ||
        bits(op.bwd_bytes.value()) != bits(bat.head_bwd_bytes[i].value()) ||
        (op.tensor_core ? 1 : 0) != bat.head_tensor_core[i]) {
      shape(name, op.fwd_flops.value(), bat.head_fwd_flops[i].value(),
            "head op operands differ from the signature");
    }
  }

  // --- batched-panel-scale: pre-scaled volume is the exact scalar product.
  // Resolve each request's owning op through the begin/count ranges, as the
  // packer does; unowned requests keep scale 1.
  std::vector<double> inv_scale(nc, 1.0);
  for (const core::SigOp& op : sig.ops) {
    const double inv_panels = 1.0 / static_cast<double>(op.panels);
    for (std::uint32_t r = op.fwd_comm_begin;
         r < op.fwd_comm_begin + op.fwd_comm_count && r < nc; ++r) {
      inv_scale[r] = inv_panels;
    }
    for (std::uint32_t r = op.bwd_comm_begin;
         r < op.bwd_comm_begin + op.bwd_comm_count && r < nc; ++r) {
      inv_scale[r] = inv_panels;
    }
  }
  for (std::size_t r = 0; r < nc; ++r) {
    const double want = (sig.comm[r].bytes * inv_scale[r]).value();
    const double got = bat.comm_panel_bytes[r].value();
    if (bits(want) != bits(got)) {
      std::ostringstream msg;
      msg << "pre-scaled panel volume is " << got << " B, scalar path feeds "
          << want << " B to collective_time";
      sink.emit(RuleId::kBatchedPanelScale, req_name(r), want, got,
                msg.str());
    }
  }

  // --- batched-price-row: the dedup preserves the request multiset. ---
  bool rows_ok = true;
  for (std::size_t u = 0; u < bat.price_rep.size(); ++u) {
    if (bat.price_rep[u] >= nc) {
      sink.emit(RuleId::kBatchedPriceRow, "row[" + std::to_string(u) + "]",
                static_cast<double>(nc), static_cast<double>(bat.price_rep[u]),
                "row representative indexes past the comm pool");
      rows_ok = false;
    } else if (bat.comm_price_row[bat.price_rep[u]] != u) {
      sink.emit(RuleId::kBatchedPriceRow, "row[" + std::to_string(u) + "]",
                static_cast<double>(u),
                static_cast<double>(bat.comm_price_row[bat.price_rep[u]]),
                "row representative does not map back to its own row");
      rows_ok = false;
    }
  }
  for (std::size_t r = 0; rows_ok && r < nc; ++r) {
    const std::uint32_t u = bat.comm_price_row[r];
    if (u >= bat.price_rep.size()) {
      sink.emit(RuleId::kBatchedPriceRow, req_name(r),
                static_cast<double>(bat.price_rep.size()),
                static_cast<double>(u),
                "request maps to a nonexistent pricing row");
      continue;
    }
    const std::uint32_t rep = bat.price_rep[u];
    if (bat.comm_kind[rep] != bat.comm_kind[r] ||
        bat.comm_group[rep] != bat.comm_group[r] ||
        bits(bat.comm_panel_bytes[rep].value()) !=
            bits(bat.comm_panel_bytes[r].value())) {
      std::ostringstream msg;
      msg << "request shares pricing row " << u
          << " with a different (collective, group, volume) triple — the "
             "dedup no longer preserves the request multiset";
      sink.emit(RuleId::kBatchedPriceRow, req_name(r),
                bat.comm_panel_bytes[rep].value(),
                bat.comm_panel_bytes[r].value(), msg.str());
    }
  }

  // --- batched-group-mask: bit g set iff group g appears in the pool. ---
  std::uint8_t want_mask = 0;
  for (std::size_t r = 0; r < nc; ++r) {
    want_mask |= static_cast<std::uint8_t>(1u << bat.comm_group[r]);
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
  std::vector<std::uint32_t> want_summa;
  for (std::size_t i = 0; i < n; ++i) {
    if (sig.ops[i].panels > 1) {
      want_summa.push_back(static_cast<std::uint32_t>(i));
    }
  }
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

void assert_batched_invariants(const core::CostSignature& sig,
                               const core::BatchedSignature& bat) {
  const LintReport report = lint_batched(sig, bat);
  if (report.errors() > 0) {
    throw std::logic_error("batched lowering invariants violated:\n" +
                           report.summary());
  }
}

}  // namespace tfpe::analysis
