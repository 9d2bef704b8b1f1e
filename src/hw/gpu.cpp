#include "hw/gpu.hpp"

#include <utility>

namespace tfpe::hw {

using util::kGB;
using util::kTFLOPs;

GpuSpec GpuSpec::with_memory(Bytes capacity, BytesPerSec bandwidth) const {
  GpuSpec out = *this;
  out.hbm_capacity = capacity;
  out.hbm_bandwidth = bandwidth;
  return out;
}

GpuSpec GpuSpec::with_compute(FlopsPerSec tensor, FlopsPerSec vector) const {
  GpuSpec out = *this;
  out.tensor_flops = tensor;
  out.vector_flops = vector;
  return out;
}

bool same_roofline(const GpuSpec& a, const GpuSpec& b) {
  return a.tensor_flops.value() == b.tensor_flops.value() &&
         a.vector_flops.value() == b.vector_flops.value() &&
         a.flops_latency.value() == b.flops_latency.value() &&
         a.hbm_bandwidth.value() == b.hbm_bandwidth.value() &&
         a.hbm_capacity.value() == b.hbm_capacity.value();
}

GpuSpec a100() {
  return GpuSpec{
      .name = "A100",
      .tensor_flops = FlopsPerSec(312 * kTFLOPs),
      .vector_flops = FlopsPerSec(78 * kTFLOPs),
      .flops_latency = Seconds(2e-5),
      .hbm_bandwidth = BytesPerSec(1555 * kGB),
      .hbm_capacity = Bytes(80 * kGB),
      .tdp_watts = 400,
  };
}

GpuSpec h200() {
  return GpuSpec{
      .name = "H200",
      .tensor_flops = FlopsPerSec(990 * kTFLOPs),
      .vector_flops = FlopsPerSec(134 * kTFLOPs),
      .flops_latency = Seconds(2e-5),
      .hbm_bandwidth = BytesPerSec(4800 * kGB),
      .hbm_capacity = Bytes(141 * kGB),
      .tdp_watts = 700,
  };
}

GpuSpec b200() {
  return GpuSpec{
      .name = "B200",
      .tensor_flops = FlopsPerSec(2500 * kTFLOPs),
      .vector_flops = FlopsPerSec(339 * kTFLOPs),
      .flops_latency = Seconds(2e-5),
      .hbm_bandwidth = BytesPerSec(8000 * kGB),
      .hbm_capacity = Bytes(192 * kGB),
      .tdp_watts = 1000,
  };
}

GpuSpec h100() {
  return GpuSpec{
      .name = "H100",
      .tensor_flops = FlopsPerSec(990 * kTFLOPs),
      .vector_flops = FlopsPerSec(134 * kTFLOPs),
      .flops_latency = Seconds(2e-5),
      .hbm_bandwidth = BytesPerSec(3350 * kGB),
      .hbm_capacity = Bytes(80 * kGB),
      .tdp_watts = 700,
  };
}

GpuSpec gpu_preset(GpuGeneration gen) {
  switch (gen) {
    case GpuGeneration::A100: return a100();
    case GpuGeneration::H200: return h200();
    case GpuGeneration::B200: return b200();
  }
  return b200();
}

std::string to_string(GpuGeneration gen) {
  switch (gen) {
    case GpuGeneration::A100: return "A100";
    case GpuGeneration::H200: return "H200";
    case GpuGeneration::B200: return "B200";
  }
  return "?";
}

std::optional<GpuGeneration> generation_by_name(const std::string& name) {
  static constexpr std::pair<const char*, GpuGeneration> kNames[] = {
      {"a100", GpuGeneration::A100},
      {"h200", GpuGeneration::H200},
      {"b200", GpuGeneration::B200}};
  for (const auto& [key, gen] : kNames) {
    if (name == key) return gen;
  }
  return std::nullopt;
}

}  // namespace tfpe::hw
