#pragma once
// GPU accelerator description (paper Table A3).
//
// All fields are strongly-typed SI units: FLOP/s, bytes/s, bytes, seconds
// (util/units.hpp). The paper's roofline (S2) consumes tensor-core FLOP rate
// for matrix ops, vector FLOP rate for element-wise ops, HBM bandwidth for
// memory-bound time, capacity for feasibility, and a fixed "FLOPs latency"
// t_sf modeling small-matrix inefficiency (first-order model from the CUDA
// matmul guide).

#include <optional>
#include <string>

#include "util/units.hpp"

namespace tfpe::hw {

struct GpuSpec {
  std::string name;
  FlopsPerSec tensor_flops;    ///< Peak FP16 tensor-core rate.
  FlopsPerSec vector_flops;    ///< Peak FP16 vector rate.
  Seconds flops_latency;       ///< Kernel launch / small-matmul latency t_sf.
  BytesPerSec hbm_bandwidth;   ///< Peak HBM bandwidth.
  Bytes hbm_capacity;          ///< HBM capacity.
  double tdp_watts = 0;        ///< Board power, for energy estimates.

  /// Returns a copy with scaled memory system (used by Figs. A5/A6 sweeps).
  GpuSpec with_memory(Bytes capacity, BytesPerSec bandwidth) const;
  /// Returns a copy with scaled compute rates (used by Fig. A5 sweep).
  GpuSpec with_compute(FlopsPerSec tensor, FlopsPerSec vector) const;
};

/// True when `a` and `b` have bitwise-equal rates, latency and HBM
/// capacity (name and TDP are ignored). with_memory / with_compute grids
/// can reuse a GPU name with different rates, so state bound to one
/// roofline is reused only under this check.
bool same_roofline(const GpuSpec& a, const GpuSpec& b);

enum class GpuGeneration { A100, H200, B200 };

/// Table A3 presets.
GpuSpec a100();
GpuSpec h200();
GpuSpec b200();

/// H100-SXM (not in the paper's Table A3; public datasheet values, provided
/// for planning on current deployments).
GpuSpec h100();
GpuSpec gpu_preset(GpuGeneration gen);
std::string to_string(GpuGeneration gen);
/// The preset named by its lower-case key (a100 | h200 | b200), as config
/// files and the CLI spell it.
std::optional<GpuGeneration> generation_by_name(const std::string& name);

}  // namespace tfpe::hw
