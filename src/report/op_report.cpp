#include "report/op_report.hpp"

#include <stdexcept>
#include <string>

#include "parallel/layer_builder.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace tfpe::report {

void print_op_report(std::ostream& os, const model::TransformerConfig& mdl,
                     const hw::SystemConfig& sys,
                     const parallel::ParallelConfig& cfg,
                     std::int64_t global_batch) {
  if (auto why = cfg.invalid_reason(mdl, sys, global_batch)) {
    throw std::invalid_argument("print_op_report: " + *why);
  }
  const parallel::LayerCost layer =
      parallel::build_layer(mdl, cfg, cfg.local_microbatch(global_batch));

  util::TextTable t;
  t.set_header({"op", "unit", "FLOPs", "HBM bytes", "AI [FLOP/B]", "fwd",
                "bwd", "comm", "bound", "stored"});
  Seconds total_fwd, total_bwd, total_comm;
  for (const auto& op : layer.ops) {
    const core::OpTime f = core::op_time(op, false, sys, cfg);
    const core::OpTime b = core::op_time(op, true, sys, cfg);
    const double ai = op.fwd_bytes > Bytes(0)
                          ? op.fwd_flops.value() / op.fwd_bytes.value()
                          : 0.0;
    const Seconds fwd = f.compute + f.memory;
    const Seconds bwd = b.compute + b.memory;
    total_fwd += fwd;
    total_bwd += bwd;
    total_comm += f.comm + b.comm;
    t.add_row({std::string(op.name), ops::to_string(op.unit),
               util::format_flops(op.fwd_flops),
               util::format_bytes(op.fwd_bytes), util::format_fixed(ai, 1),
               util::format_time(fwd), util::format_time(bwd),
               util::format_time(f.comm + b.comm),
               f.compute > Seconds(0) ? "compute" : "memory",
               util::format_bytes(op.stored_bytes)});
  }
  os << "Per-op roofline for " << mdl.name << " | " << cfg.describe()
     << " | local microbatch " << cfg.local_microbatch(global_batch) << "\n";
  t.print(os);
  os << "block totals: fwd " << util::format_time(total_fwd) << ", bwd "
     << util::format_time(total_bwd) << ", exposed comm "
     << util::format_time(total_comm) << ", stored "
     << util::format_bytes(layer.stored_bytes()) << ", weights "
     << util::format_fixed(layer.weight_params / 1e6, 1) << "M params\n";
}

}  // namespace tfpe::report
