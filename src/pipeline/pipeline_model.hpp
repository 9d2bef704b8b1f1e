#pragma once
// 1F1B non-interleaved pipeline schedule model (paper §III S1/S2).
//
// A global batch is split into m microbatches; stages run one-forward-
// one-backward in steady state. Idle (bubble) time is (np - 1)(tf + tb) and
// the schedule keeps at most np microbatches of activations in flight.
// Stage-boundary activations move by point-to-point messages which the model
// does not overlap with compute (shown small in §IV).

#include <cstdint>

#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
#include "hw/network.hpp"
#include "hw/topology.hpp"

namespace tfpe::pipeline {

/// Bubble time for an np-stage pipeline with per-microbatch forward/backward
/// times tf / tb. With `interleave` v > 1 (interleaved 1F1B, v virtual
/// chunks per GPU) the bubble shrinks by a factor v (Narayanan et al.).
Seconds bubble_time(std::int64_t np, Seconds t_fwd, Seconds t_bwd,
                    std::int64_t interleave = 1);

/// Microbatches whose activations are simultaneously resident on the most
/// loaded stage: min(m, np).
std::int64_t in_flight_microbatches(std::int64_t np, std::int64_t m);

/// Total exposed point-to-point time per iteration for one stage:
/// m microbatches x (forward activation + backward gradient) messages of
/// `boundary_bytes` each, times the interleave factor (each microbatch
/// crosses every stage boundary v times). `nvs_neighbors` > 1 places
/// pipeline neighbors in the same fast domain.
Seconds p2p_time(const hw::NetworkSpec& net, std::int64_t np, std::int64_t m,
                 Bytes boundary_bytes, std::int64_t nvs_neighbors,
                 std::int64_t interleave = 1);

/// Same against a resolved fabric: the hop crosses the innermost level the
/// two neighbors share. Bitwise identical to the NetworkSpec overload for
/// the canonical two-level fabric.
Seconds p2p_time(const hw::Topology& fabric, std::int64_t np, std::int64_t m,
                 Bytes boundary_bytes, std::int64_t nvs_neighbors,
                 std::int64_t interleave = 1);

/// Same through a comm::FabricPricer bound to the fabric: one price() of the
/// pre-placed neighbor pair instead of a fabric walk. `hop` must be
/// pricer.place({.size = 2, .nvs = nvs_neighbors}) for the same
/// nvs_neighbors the Topology overload would receive — then the result is
/// bitwise identical to it (the pricer's contract).
Seconds p2p_time(const comm::FabricPricer& pricer,
                 const comm::FabricPricer::Placed& hop, std::int64_t np,
                 std::int64_t m, Bytes boundary_bytes,
                 std::int64_t interleave = 1);

/// End-to-end iteration time: m steady microbatches plus the bubble.
Seconds iteration_time(std::int64_t np, std::int64_t m, Seconds t_fwd,
                       Seconds t_bwd);

// -- Inference phases (core/workload.hpp). Serving replaces the 1F1B
// fill/drain with two schedules: a forward-only prefill ramp and a steady
// decode rotation of request groups around the stages.

/// One stage-boundary activation hop, one direction (the fill/drain model
/// above charges fwd + bwd per microbatch; inference phases have no
/// backward). Zero when the fabric hop is moot (np = 1 callers pass any
/// bytes).
Seconds p2p_hop(const hw::Topology& fabric, Bytes boundary_bytes,
                std::int64_t nvs_neighbors);

/// Prefill latency: m prompt microbatches streamed through np forward-only
/// stages of `t_stage` each — (m + np - 1) stage slots plus the (np - 1)
/// boundary hops on the first token's critical path.
Seconds prefill_latency(std::int64_t np, std::int64_t m, Seconds t_stage,
                        Seconds t_hop);

/// Steady-state decode round: the resident batch is split into np groups
/// that rotate around the stages, one token per request per round. Each
/// stage serves all np groups per round (np x t_stage_group) and every
/// group crossing pays a boundary hop (np hops around the ring, including
/// the next-token feedback to stage 0). This is the per-token latency
/// (TPOT) before continuous-batching prefill interference.
Seconds decode_round_time(std::int64_t np, Seconds t_stage_group,
                          Seconds t_hop);

}  // namespace tfpe::pipeline
