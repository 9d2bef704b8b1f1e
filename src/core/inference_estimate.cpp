#include "core/inference_estimate.hpp"

#include <algorithm>
#include <cmath>

#include "core/lower_bounds.hpp"
#include "ops/op_factory.hpp"
#include "pipeline/pipeline_model.hpp"

namespace tfpe::core {

namespace {

model::TransformerConfig prompt_model(const model::TransformerConfig& mdl,
                                      const Workload& w) {
  model::TransformerConfig prompt = mdl;
  if (w.prompt_len > 0) prompt.seq_len = w.prompt_len;
  return prompt;
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
  if (sc.batch < 1) return "batch must be >= 1";
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

InferenceEstimate estimate_serving(const model::TransformerConfig& mdl,
                                   const hw::SystemConfig& sys,
                                   const Workload& w, const ServingConfig& sc,
                                   const CostSignature& prefill_training_sig,
                                   const EvalOptions& opts) {
  InferenceEstimate est;
  est.cfg = sc;
  if (auto why = serve_invalid_reason(mdl, sys, w, sc)) {
    est.reason = *why;
    return est;
  }
  const parallel::ParallelConfig cfg = serving_parallel_config(sys, sc);
  const double np = static_cast<double>(sc.pp);
  const double n_replica = static_cast<double>(sc.tp * sc.pp);
  const double osl = static_cast<double>(w.output_len);

  // --- Prefill: one prompt through the forward-only pipeline. ---
  const CostSignature sig_p =
      adapt_to_phase(prefill_training_sig, ExecutionPhase::kPrefill);
  const SystemTiming base_p = bind_system(sig_p, sys, opts);
  const Seconds t_stage_p = time_phase(sig_p, base_p, cfg, opts).t_stage;
  const Seconds t_hop_p = pipeline::p2p_hop(
      base_p.fabric, sig_p.pp_boundary_bytes, cfg.nvsp > 1 ? 2 : 1);
  est.ttft = pipeline::prefill_latency(sc.pp, 1, t_stage_p, t_hop_p).value();

  // --- KV budget -> admitted batch R. ---
  est.kv_bytes_per_request = memory::kv_cache_bytes(
      mdl, mdl.depth / sc.pp,
      static_cast<double>(w.prompt_len + w.output_len), sc.tp);
  const Bytes kv_budget = Bytes(sc.kv_cap_fraction *
                                sys.gpu.hbm_capacity.value()) -
                          sig_p.mem.weights - sig_p.mem.activations;
  if (!(kv_budget.value() >= est.kv_bytes_per_request.value())) {
    est.reason = "KV budget admits no resident request";
    return est;
  }
  const std::int64_t cap = static_cast<std::int64_t>(
      std::floor(kv_budget.value() / est.kv_bytes_per_request.value()));
  est.admitted_batch = std::min(sc.batch, cap);
  const double R = static_cast<double>(est.admitted_batch);

  // --- Decode: R requests in pp rotating groups. ---
  const CostSignature sig_d =
      compile_decode_signature(mdl, cfg, R / np, w.decode_kv_len());
  const SystemTiming base_d = bind_system(sig_d, sys, opts);
  const Seconds t_stage_d = time_phase(sig_d, base_d, cfg, opts).t_stage;
  const Seconds t_hop_d = pipeline::p2p_hop(
      base_d.fabric, sig_d.pp_boundary_bytes, cfg.nvsp > 1 ? 2 : 1);
  const Seconds round = pipeline::decode_round_time(sc.pp, t_stage_d, t_hop_d);

  // Continuous batching: R/OSL requests complete (and are replaced) per
  // round; each replacement prompt costs every stage one prefill pass.
  const Seconds prefill_steal = t_stage_p * (R / osl);
  const Seconds tpot = round + prefill_steal;
  est.tpot = tpot.value();
  est.prefill_fraction = (prefill_steal / tpot).value();
  est.request_latency = est.ttft + osl * est.tpot;
  est.tokens_per_sec = R / est.tpot;
  est.tokens_per_sec_per_gpu = est.tokens_per_sec / n_replica;

  // --- Residency on the busiest GPU. ---
  est.mem.weights = sig_p.mem.weights;
  est.mem.activations =
      std::max(sig_p.mem.activations, sig_d.mem.activations);
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
                                   const EvalOptions& opts) {
  InferenceEstimate est;
  est.cfg = sc;
  if (auto why = serve_invalid_reason(mdl, sys, w, sc)) {
    est.reason = *why;
    return est;
  }
  const parallel::ParallelConfig cfg = serving_parallel_config(sys, sc);
  const CostSignature sig =
      compile_signature(prompt_model(mdl, w), cfg, 1, opts);
  return estimate_serving(mdl, sys, w, sc, sig, opts);
}

}  // namespace tfpe::core
