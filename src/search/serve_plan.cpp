#include "search/serve_plan.hpp"

#include <algorithm>
#include <optional>

#include "search/search_cache.hpp"

namespace tfpe::search {

std::vector<std::size_t> pareto_front_serving(
    const std::vector<core::InferenceEstimate>& points) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].feasible) order.push_back(i);
  }
  // Ascending latency; at equal latency the most efficient point first so
  // the dominance sweep keeps exactly one of a tie group.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (points[a].request_latency != points[b].request_latency) {
      return points[a].request_latency < points[b].request_latency;
    }
    return points[a].tokens_per_sec_per_gpu > points[b].tokens_per_sec_per_gpu;
  });
  std::vector<std::size_t> front;
  double best = -1.0;
  for (const std::size_t i : order) {
    if (points[i].tokens_per_sec_per_gpu > best) {
      front.push_back(i);
      best = points[i].tokens_per_sec_per_gpu;
    }
  }
  return front;
}

ServePlanResult run_serve_plan(const model::TransformerConfig& mdl,
                               const hw::SystemConfig& sys,
                               const ServePlanOptions& opts) {
  opts.eval.validate();
  const core::ServingSpec& spec = opts.spec;
  const core::Workload w = spec.workload();
  model::TransformerConfig prompt = mdl;
  if (spec.prompt_len > 0) prompt.seq_len = spec.prompt_len;

  ServePlanResult res;
  LayerCostCache layers;
  SignatureCache signatures;
  for (const std::int64_t tp : spec.tp) {
    for (const std::int64_t pp : spec.pp) {
      core::ServingConfig shape;
      shape.tp = tp;
      shape.pp = pp;
      shape.kv_cap_fraction = spec.kv_cap_fraction;
      // One shape-validity screen covers the whole batch axis; the prefill
      // signature is compiled on the shape's first batch point and comes
      // back as a SignatureCache hit for every later one; the estimate's
      // shape half is built right after the first lookup.
      const auto shape_why = core::serve_invalid_reason(mdl, sys, w, shape);
      const parallel::ParallelConfig cfg =
          core::serving_parallel_config(sys, shape);
      std::optional<core::ServingShape> half;
      for (const std::int64_t batch : spec.batch) {
        if (spec.max_batch > 0 && batch > spec.max_batch) continue;
        core::ServingConfig sc = shape;
        sc.batch = batch;
        ++res.stats.evaluated;
        if (shape_why) {
          core::InferenceEstimate est;
          est.cfg = sc;
          est.reason = *shape_why;
          res.points.push_back(std::move(est));
          continue;
        }
        const std::shared_ptr<const core::CostSignature> sig =
            signatures.get(prompt, cfg, 1, opts.eval, layers);
        if (!half) half.emplace(mdl, sys, w, shape, *sig, opts.eval);
        res.points.push_back(half->estimate(batch));
        if (res.points.back().feasible) ++res.stats.feasible;
      }
    }
  }
  res.stats.signature_compiles = signatures.compiles();
  res.stats.signature_reuses = signatures.hits();
  res.front = pareto_front_serving(res.points);
  return res;
}

}  // namespace tfpe::search
