#include "pipeline/pipeline_model.hpp"

#include <algorithm>

#include "comm/collective_algorithm.hpp"
#include "ops/op.hpp"

namespace tfpe::pipeline {

Seconds bubble_time(std::int64_t np, Seconds t_fwd, Seconds t_bwd,
                    std::int64_t interleave) {
  return (t_fwd + t_bwd) *
         (static_cast<double>(np - 1) / static_cast<double>(interleave));
}

std::int64_t in_flight_microbatches(std::int64_t np, std::int64_t m) {
  return std::min(np, m);
}

Seconds p2p_time(const hw::NetworkSpec& net, std::int64_t np, std::int64_t m,
                 Bytes boundary_bytes, std::int64_t nvs_neighbors,
                 std::int64_t interleave) {
  if (np <= 1) return Seconds(0);
  const Seconds one_hop = comm::collective_time(
      net, ops::Collective::PointToPoint, boundary_bytes,
      {.size = 2, .nvs = nvs_neighbors});
  // Forward activation send + backward gradient send per microbatch, once
  // per virtual chunk.
  return one_hop *
         (2.0 * static_cast<double>(m) * static_cast<double>(interleave));
}

Seconds p2p_time(const comm::FabricPricer& pricer,
                 const comm::FabricPricer::Placed& hop, std::int64_t np,
                 std::int64_t m, Bytes boundary_bytes,
                 std::int64_t interleave) {
  if (np <= 1) return Seconds(0);
  const Seconds one_hop =
      pricer.price(ops::Collective::PointToPoint, boundary_bytes, hop);
  return one_hop *
         (2.0 * static_cast<double>(m) * static_cast<double>(interleave));
}

Seconds p2p_time(const hw::Topology& fabric, std::int64_t np, std::int64_t m,
                 Bytes boundary_bytes, std::int64_t nvs_neighbors,
                 std::int64_t interleave) {
  if (np <= 1) return Seconds(0);
  const Seconds one_hop = comm::collective_time(
      fabric, ops::Collective::PointToPoint, boundary_bytes,
      {.size = 2, .nvs = nvs_neighbors});
  return one_hop *
         (2.0 * static_cast<double>(m) * static_cast<double>(interleave));
}

Seconds iteration_time(std::int64_t np, std::int64_t m, Seconds t_fwd,
                       Seconds t_bwd) {
  return (t_fwd + t_bwd) * static_cast<double>(m) +
         bubble_time(np, t_fwd, t_bwd);
}

Seconds p2p_hop(const hw::Topology& fabric, Bytes boundary_bytes,
                std::int64_t nvs_neighbors) {
  return comm::collective_time(fabric, ops::Collective::PointToPoint,
                               boundary_bytes,
                               {.size = 2, .nvs = nvs_neighbors});
}

Seconds prefill_latency(std::int64_t np, std::int64_t m, Seconds t_stage,
                        Seconds t_hop) {
  return t_stage * static_cast<double>(m + np - 1) +
         t_hop * static_cast<double>(np - 1);
}

Seconds decode_round_time(std::int64_t np, Seconds t_stage_group,
                          Seconds t_hop) {
  if (np <= 1) return t_stage_group;
  return (t_stage_group + t_hop) * static_cast<double>(np);
}

}  // namespace tfpe::pipeline
