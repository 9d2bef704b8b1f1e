#include "core/inference_estimate.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/batched_signature.hpp"
#include "core/lower_bounds.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

model::TransformerConfig prompt_model(const model::TransformerConfig& mdl,
                                      const Workload& w) {
  model::TransformerConfig prompt = mdl;
  if (w.prompt_len > 0) prompt.seq_len = w.prompt_len;
  return prompt;
}

InferenceEstimate rejected(const ServingConfig& sc, std::string reason) {
  InferenceEstimate est;
  est.cfg = sc;
  est.reason = std::move(reason);
  return est;
}

}  // namespace

parallel::ParallelConfig serving_parallel_config(const hw::SystemConfig& sys,
                                                 const ServingConfig& sc) {
  parallel::ParallelConfig cfg;
  cfg.strategy = parallel::TpStrategy::TP1D;
  cfg.n1 = sc.tp;
  cfg.np = sc.pp;
  cfg.nd = 1;
  cfg.microbatches = 1;
  cfg.pack_placement(sys.nvs_domain);
  return cfg;
}

std::optional<std::string> serve_invalid_reason(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const Workload& w, const ServingConfig& sc) {
  if (sc.tp < 1 || sc.pp < 1) return "tp and pp must be >= 1";
  if (!(sc.kv_cap_fraction > 0.0) || sc.kv_cap_fraction > 1.0) {
    return "kv_cap_fraction must be in (0, 1]";
  }
  if (w.prompt_len < 1) return "prompt_len must be >= 1";
  if (w.output_len < 1) return "output_len must be >= 1";
  if (mdl.is_moe()) return "MoE serving is not modeled";
  // The training divisibility contract on the prompt-length model covers
  // heads/kv-heads/hidden/embed over tp, depth over pp, prompt over tp
  // (sequence-parallel prefill) and the replica <= system GPU count.
  const parallel::ParallelConfig cfg = serving_parallel_config(sys, sc);
  if (auto why = cfg.invalid_reason(prompt_model(mdl, w), sys, 1)) return why;
  return std::nullopt;
}

ServingShape::ServingShape(const model::TransformerConfig& model,
                           const hw::SystemConfig& system,
                           const Workload& workload,
                           const ServingConfig& shape_config,
                           const CostSignature& prefill_training_sig,
                           const EvalOptions& eval)
    : mdl(model),
      sys(system),
      w(workload),
      opts(eval),
      sc(shape_config),
      cfg(serving_parallel_config(system, shape_config)),
      fabric(system.resolved_fabric()),
      pricer_(fabric) {
  // --- Prefill: one prompt through the forward-only pipeline. ---
  const CostSignature sig =
      adapt_to_phase(prefill_training_sig, ExecutionPhase::kPrefill);
  prefill_stage = stage_time(sig);
  const Seconds t_hop =
      pipeline::p2p_hop(fabric, sig.pp_boundary_bytes, cfg.nvsp > 1 ? 2 : 1);
  ttft = pipeline::prefill_latency(sc.pp, 1, prefill_stage, t_hop).value();

  // --- KV budget. ---
  kv_bytes_per_request = memory::kv_cache_bytes(
      mdl, mdl.depth / sc.pp,
      static_cast<double>(w.prompt_len + w.output_len), sc.tp);
  kv_budget = Bytes(sc.kv_cap_fraction * sys.gpu.hbm_capacity.value()) -
              sig.mem.weights - sig.mem.activations;
  prefill_mem = sig.mem;
}

Seconds ServingShape::stage_time(const CostSignature& sig) {
  const BatchedSignature bat = lower_batched(sig);
  SystemTiming base;
  finish_bind(bind_block(bat, sys, opts), sig, sys, base);
  time_placements_batch(sig, bat, base, sys, cfg,
                        {{cfg.nvs1, cfg.nvs2, cfg.nvsp, cfg.nvsd}}, opts,
                        timing_, &scratch_, &pricer_);
  return timing_.front().t_fwd_stage;
}

InferenceEstimate ServingShape::estimate(std::int64_t batch) {
  InferenceEstimate est;
  est.cfg = sc;
  est.cfg.batch = batch;
  if (batch < 1) {
    est.reason = "batch must be >= 1";
    return est;
  }
  const double np = static_cast<double>(sc.pp);
  const double n_replica = static_cast<double>(sc.tp * sc.pp);
  const double osl = static_cast<double>(w.output_len);
  est.ttft = ttft;

  // --- KV budget -> admitted batch R. ---
  est.kv_bytes_per_request = kv_bytes_per_request;
  if (!(kv_budget.value() >= est.kv_bytes_per_request.value())) {
    est.reason = "KV budget admits no resident request";
    return est;
  }
  const std::int64_t cap = static_cast<std::int64_t>(
      std::floor(kv_budget.value() / est.kv_bytes_per_request.value()));
  est.admitted_batch = std::min(batch, cap);
  const double R = static_cast<double>(est.admitted_batch);

  // --- Decode: R requests in pp rotating groups. ---
  const CostSignature sig =
      compile_decode_signature(mdl, cfg, R / np, w.decode_kv_len());
  const Seconds t_stage = stage_time(sig);
  const Seconds t_hop =
      pipeline::p2p_hop(fabric, sig.pp_boundary_bytes, cfg.nvsp > 1 ? 2 : 1);
  const Seconds round = pipeline::decode_round_time(sc.pp, t_stage, t_hop);

  // Continuous batching: R/OSL requests complete (and are replaced) per
  // round; each replacement prompt costs every stage one prefill pass.
  const Seconds prefill_steal = prefill_stage * (R / osl);
  const Seconds tpot = round + prefill_steal;
  est.tpot = tpot.value();
  est.prefill_fraction = (prefill_steal / tpot).value();
  est.request_latency = est.ttft + osl * est.tpot;
  est.tokens_per_sec = R / est.tpot;
  est.tokens_per_sec_per_gpu = est.tokens_per_sec / n_replica;

  // --- Residency on the busiest GPU. ---
  est.mem.weights = prefill_mem.weights;
  est.mem.activations = std::max(prefill_mem.activations, sig.mem.activations);
  est.mem.kv_cache = est.kv_bytes_per_request * R;
  est.decode_floor =
      decode_round_floor(est.mem.weights, est.mem.kv_cache, sys.gpu);
  if (est.mem.total() > sys.gpu.hbm_capacity) {
    est.reason = "exceeds HBM capacity";
    return est;
  }
  est.feasible = true;
  return est;
}

InferenceEstimate estimate_serving(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const Workload& w, const ServingConfig& sc,
                                   const CostSignature& prefill_training_sig,
                                   const EvalOptions& opts) {
  if (auto why = serve_invalid_reason(mdl, sys, w, sc)) {
    return rejected(sc, *why);
  }
  return ServingShape(mdl, sys, w, sc, prefill_training_sig, opts)
      .estimate(sc.batch);
}

InferenceEstimate estimate_serving(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const Workload& w, const ServingConfig& sc,
                                   const EvalOptions& opts) {
  if (auto why = serve_invalid_reason(mdl, sys, w, sc)) {
    return rejected(sc, *why);
  }
  return estimate_serving(
      mdl, sys, w, sc,
      compile_signature(prompt_model(mdl, w), serving_parallel_config(sys, sc),
                        1, opts),
      opts);
}

}  // namespace tfpe::core
