#include "sim/validation.hpp"

#include <algorithm>
#include <stdexcept>

#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
#include "core/batched_signature.hpp"
#include "parallel/layer_builder.hpp"
#include "pipeline/pipeline_model.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/ring_sim.hpp"

namespace tfpe::sim {

namespace {

std::pair<std::int64_t, std::int64_t> group_of(
    const parallel::ParallelConfig& cfg, ops::CommGroup group) {
  switch (group) {
    case ops::CommGroup::TP1: return {cfg.n1, cfg.nvs1};
    case ops::CommGroup::TP2: return {cfg.n2, cfg.nvs2};
    case ops::CommGroup::DP: return {cfg.nd, cfg.nvsd};
    case ops::CommGroup::PP: return {cfg.np, cfg.nvsp};
  }
  return {1, 1};
}

/// Exposed communication time of one op via the discrete-event ring
/// simulator, mirroring the evaluator's SUMMA prologue/overlap treatment.
Seconds op_comm_sim(const ops::Op& op, bool backward,
                    const hw::SystemConfig& sys,
                    const parallel::ParallelConfig& cfg, Seconds t_panel_comp) {
  const auto& reqs = backward ? op.bwd_comm : op.fwd_comm;
  if (reqs.empty()) return Seconds(0);
  const std::int64_t panels = std::max<std::int64_t>(1, op.summa_panels);
  Seconds t_panel_comm;
  for (const auto& req : reqs) {
    const auto [g, nvs] = group_of(cfg, req.group);
    t_panel_comm += simulate_collective(
        sys.net, req.collective, req.bytes / static_cast<double>(panels), g, nvs);
  }
  if (panels == 1) return t_panel_comm;
  return t_panel_comm + std::max(Seconds(0), t_panel_comm - t_panel_comp) *
                            static_cast<double>(panels - 1);
}

}  // namespace

ValidationPoint validate_collective(const hw::NetworkSpec& net,
                                    ops::Collective coll, Bytes bytes,
                                    std::int64_t g, std::int64_t nvs,
                                    std::string label) {
  ValidationPoint point;
  point.label = std::move(label);
  point.analytic_seconds =
      comm::collective_time(net, coll, bytes, {.size = g, .nvs = nvs}).value();
  point.simulated_seconds = simulate_collective(net, coll, bytes, g, nvs).value();
  return point;
}

ValidationPoint validate_iteration(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const parallel::ParallelConfig& cfg,
                                   std::int64_t global_batch,
                                   std::string label) {
  const core::EvalResult analytic = core::evaluate(mdl, sys, cfg, global_batch);
  if (!analytic.feasible) {
    throw std::invalid_argument("validate_iteration: infeasible config: " +
                                analytic.reason);
  }

  const parallel::LayerCost layer =
      parallel::build_layer(mdl, cfg, cfg.local_microbatch(global_batch));
  const double layers = static_cast<double>(mdl.depth / cfg.np);

  // Per-microbatch per-stage times: analytic roofline for compute (the
  // validation targets the schedule and communication, as in the paper),
  // simulated ring collectives for TP communication.
  Seconds fwd, bwd;
  for (const auto& op : layer.ops) {
    const core::OpTime f = core::op_time(op, false, sys, cfg);
    const core::OpTime b = core::op_time(op, true, sys, cfg);
    const Seconds f_comp = f.compute + f.memory;
    const Seconds b_comp = b.compute + b.memory;
    const std::int64_t panels = std::max<std::int64_t>(1, op.summa_panels);
    fwd += f_comp + op_comm_sim(op, false, sys, cfg,
                                f_comp / static_cast<double>(panels));
    bwd += b_comp + op_comm_sim(op, true, sys, cfg,
                                b_comp / static_cast<double>(panels));
  }
  const Seconds t_fwd = fwd * layers;
  const Seconds t_bwd = bwd * layers;

  Seconds t_p2p;
  if (cfg.np > 1) {
    t_p2p = simulate_collective(sys.net, ops::Collective::PointToPoint,
                                layer.pp_boundary_bytes, 2,
                                cfg.nvsp > 1 ? 2 : 1);
  }
  const PipelineTrace trace = simulate_pipeline(
      {cfg.np, cfg.microbatches, t_fwd, t_bwd, t_p2p});

  // DP exposure with simulated collectives.
  Seconds dp_exposed;
  std::int64_t dp_size = cfg.nd, dp_nvs = cfg.nvsd;
  if (layer.dp_group_includes_tp2) {
    dp_size *= cfg.n2;
    dp_nvs *= cfg.nvs2;
  }
  const double stage_params = layer.weight_params * layers;
  if (dp_size > 1) {
    const Bytes grad_bytes = Bytes(2.0 * stage_params);
    const Seconds t_rs = simulate_collective(
        sys.net, ops::Collective::ReduceScatter, grad_bytes, dp_size, dp_nvs);
    const Seconds t_ag = simulate_collective(
        sys.net, ops::Collective::AllGather, grad_bytes, dp_size, dp_nvs);
    dp_exposed = std::max(Seconds(0), t_rs - t_bwd) +
                 std::max(Seconds(0), t_ag - t_fwd);
  }

  ValidationPoint point;
  point.label = std::move(label);
  point.analytic_seconds = analytic.iteration();
  point.simulated_seconds =
      trace.completion_time + dp_exposed.value() + analytic.time.optimizer;
  return point;
}

PipelineParams pipeline_params_from_signature(
    const hw::SystemConfig& sys, const parallel::ParallelConfig& cfg,
    const core::CostSignature& sig, const core::EvalOptions& opts) {
  const core::BatchedSignature bat = core::lower_batched(sig);
  std::vector<core::PlacementTiming> pt;
  core::time_placements_batch(sig, bat,
                              core::bind_system_batched(sig, bat, sys, opts),
                              sys, cfg,
                              {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}}, opts,
                              pt);
  PipelineParams params;
  params.stages = sig.np;
  params.microbatches = sig.microbatches;
  params.t_fwd = pt.front().t_fwd_stage;
  params.t_bwd = pt.front().t_bwd_stage;
  if (sig.np > 1) {
    // Same fabric the evaluator's pipeline term walks, so signature-driven
    // pipeline simulation stays in lockstep with the evaluator.
    params.t_p2p = comm::collective_time(
        sys.resolved_fabric(), ops::Collective::PointToPoint,
        sig.pp_boundary_bytes, {.size = 2, .nvs = cfg.nvsp > 1 ? 2 : 1});
  }
  return params;
}

}  // namespace tfpe::sim
