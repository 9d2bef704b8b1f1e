// Regenerates the paper's analytic tables:
//   Table I   — 1D TP per-op shapes, collectives and volumes,
//   Table II  — 2D TP,
//   Table A2  — 2D TP SUMMA,
//   Table A3  — GPU/network parameters.
// Volumes are printed in elements (bytes / 2) for a GPT3-1T block with
// b = 1 to match the paper's symbolic "Vol" column numerically.

#include <iostream>

#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "ops/op_factory.hpp"
#include "parallel/layer_builder.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace tfpe;

void print_layer_table(const std::string& caption,
                       const parallel::LayerCost& layer) {
  util::TextTable t;
  t.set_header({"operation", "partitioned tensors", "unit", "collective(s)",
                "Vol fwd [elems]", "stored [elems]"});
  for (const auto& op : layer.ops) {
    std::string colls;
    Bytes vol;
    for (const auto& r : op.fwd_comm) {
      if (!colls.empty()) colls += "+";
      colls += ops::to_string(r.collective) + "(" + ops::to_string(r.group) + ")";
      vol += r.bytes;
    }
    if (colls.empty()) colls = "-";
    t.add_row(
        {std::string(op.name), std::string(op.detail.empty() ? "-" : op.detail),
         ops::to_string(op.unit), colls,
         util::format_fixed(vol.value() / ops::kBytesPerElement, 0),
         util::format_fixed(op.stored_bytes.value() / ops::kBytesPerElement,
                            0)});
  }
  std::cout << "== " << caption << " ==\n";
  t.print(std::cout);
  std::cout << "per-GPU weight params/block: "
            << util::format_fixed(layer.weight_params, 0)
            << "; PP boundary bytes/microbatch: "
            << util::format_bytes(layer.pp_boundary_bytes) << "\n\n";
}

}  // namespace

int main() {
  const model::TransformerConfig mdl = model::gpt3_1t();
  const std::int64_t B = 1;

  {
    parallel::ParallelConfig cfg;
    cfg.strategy = parallel::TpStrategy::TP1D;
    cfg.n1 = 8;
    print_layer_table("Table I | 1D TP over nt=8 GPUs (GPT3-1T, b=1)",
                      parallel::build_layer(mdl, cfg, B));
  }
  {
    parallel::ParallelConfig cfg;
    cfg.strategy = parallel::TpStrategy::TP2D;
    cfg.n1 = 4;
    cfg.n2 = 2;
    print_layer_table("Table II | 2D TP over 4x2 GPUs (GPT3-1T, b=1)",
                      parallel::build_layer(mdl, cfg, B));
  }
  {
    parallel::ParallelConfig cfg;
    cfg.strategy = parallel::TpStrategy::Summa2D;
    cfg.n1 = 4;
    cfg.n2 = 2;
    cfg.nb = 4;
    print_layer_table("Table A2 | 2D TP SUMMA over 4x2 GPUs, nb=4 (GPT3-1T, b=1)",
                      parallel::build_layer(mdl, cfg, B));
  }

  // Table A3.
  util::TextTable t;
  t.set_header({"description", "A100", "H200", "B200"});
  const hw::GpuSpec g[] = {hw::a100(), hw::h200(), hw::b200()};
  const hw::NetworkSpec n[] = {hw::network_preset(hw::GpuGeneration::A100),
                               hw::network_preset(hw::GpuGeneration::H200),
                               hw::network_preset(hw::GpuGeneration::B200)};
  auto row = [&](const std::string& name, auto getter) {
    t.add_row({name, getter(0), getter(1), getter(2)});
  };
  row("Tensor core FP16 (TFLOPs/s)", [&](int i) {
    return util::format_fixed(g[i].tensor_flops.value() / 1e12, 0);
  });
  row("Vector FP16 (TFLOPs/s)", [&](int i) {
    return util::format_fixed(g[i].vector_flops.value() / 1e12, 0);
  });
  row("Flops latency (s)", [&](int i) {
    return util::format_fixed(g[i].flops_latency.value(), 5);
  });
  row("HBM bandwidth (GB/s)", [&](int i) {
    return util::format_fixed(g[i].hbm_bandwidth.value() / 1e9, 0);
  });
  row("HBM capacity (GB)", [&](int i) {
    return util::format_fixed(g[i].hbm_capacity.value() / 1e9, 0);
  });
  row("NVS 1-dir bandwidth (GB/s)", [&](int i) {
    return util::format_fixed(n[i].nvs_bandwidth.value() / 1e9, 0);
  });
  row("NVS latency (s)", [&](int i) {
    return util::format_fixed(n[i].nvs_latency.value() * 1e6, 1) + "e-6";
  });
  row("IB bandwidth (GB/s)", [&](int i) {
    return util::format_fixed(n[i].ib_bandwidth.value() / 1e9, 0);
  });
  row("IB latency (s)", [&](int i) {
    return util::format_fixed(n[i].ib_latency.value() * 1e6, 1) + "e-6";
  });
  std::cout << "== Table A3 | GPU and network parameters ==\n";
  t.print(std::cout);
  return 0;
}
