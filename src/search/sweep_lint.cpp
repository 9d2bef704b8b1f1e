#include "search/sweep_lint.hpp"

#include <array>
#include <sstream>
#include <string>

namespace tfpe::search {

namespace {

using analysis::DiagnosticSink;
using analysis::RuleId;

/// Chain identity of one grid point as run_codesign keys it.
struct ChainKey {
  std::string gpu_name;
  std::int64_t n_gpus = 0;
  bool operator==(const ChainKey&) const = default;
};

bool same_roofline(const hw::GpuSpec& a, const hw::GpuSpec& b) {
  return a.tensor_flops.value() == b.tensor_flops.value() &&
         a.vector_flops.value() == b.vector_flops.value() &&
         a.flops_latency.value() == b.flops_latency.value() &&
         a.hbm_bandwidth.value() == b.hbm_bandwidth.value() &&
         a.hbm_capacity.value() == b.hbm_capacity.value();
}

/// A representative config per strategy with every dim > 1 so a key that
/// ignores a dim is guaranteed to collapse the probe mutation.
parallel::ParallelConfig probe_config(parallel::TpStrategy strategy) {
  parallel::ParallelConfig cfg;
  cfg.strategy = strategy;
  cfg.n1 = 2;
  cfg.n2 = strategy == parallel::TpStrategy::TP1D ? 1 : 2;
  cfg.np = 2;
  cfg.nd = 2;
  cfg.microbatches = 2;
  cfg.nb = strategy == parallel::TpStrategy::Summa2D ? 2 : 1;
  cfg.interleave = 1;
  cfg.nvs1 = 1;
  cfg.nvs2 = 1;
  cfg.nvsp = 1;
  cfg.nvsd = 1;
  return cfg;
}

}  // namespace

analysis::LintReport lint_sweep_plan(const model::TransformerConfig& mdl,
                                     const std::vector<hw::SystemConfig>& points,
                                     const SweepOptions& opts,
                                     const analysis::LintOptions& lint_opts,
                                     const SweepLintHooks* hooks) {
  DiagnosticSink sink(lint_opts.rules);

  // --- sweep-options: knobs run_sweep rejects with a throw. ---
  if (opts.search.top_k != 0) {
    sink.emit(RuleId::kSweepOptions, "<options>", 0.0,
              static_cast<double>(opts.search.top_k),
              "search.top_k is unsupported under run_sweep (it keeps only "
              "the per-point optimum; rank with find_optimal instead)");
  }
  if (opts.search.threads != 0) {
    sink.emit(RuleId::kSweepOptions, "<options>", 0.0,
              static_cast<double>(opts.search.threads),
              "search.threads is unsupported under run_sweep (the sweep "
              "owns the thread budget via SweepOptions::threads)");
  }

  // --- sweep-cache-key: behavioral probe of the key extractors. ---
  const std::function<SignatureKey(const parallel::ParallelConfig&)> sig_key =
      hooks && hooks->signature_key
          ? hooks->signature_key
          : std::function<SignatureKey(const parallel::ParallelConfig&)>(
                signature_key);
  const std::function<LayerKey(const model::TransformerConfig&,
                               const parallel::ParallelConfig&, std::int64_t)>
      lay_key = hooks && hooks->layer_key
                    ? hooks->layer_key
                    : std::function<LayerKey(const model::TransformerConfig&,
                                             const parallel::ParallelConfig&,
                                             std::int64_t)>(layer_key);

  for (const parallel::TpStrategy strategy :
       {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
        parallel::TpStrategy::Summa2D}) {
    const parallel::ParallelConfig base = probe_config(strategy);
    const SignatureKey base_key = sig_key(base);
    const std::string where =
        "<strategy " + parallel::to_string(strategy) + ">";

    // Placement/interleave mutations must NOT reach the key: signatures are
    // hardware-free, placement and schedule enter only at timing. A key
    // that depends on them fragments the cache (correct but useless); one
    // that depends on them asymmetrically is how stale-artifact bugs start.
    const auto invariant = [&](parallel::ParallelConfig mutated,
                               const std::string& field) {
      if (!(sig_key(mutated) == base_key)) {
        sink.emit(RuleId::kSweepCacheKey, where, 0.0, 1.0,
                  "SignatureKey depends on " + field +
                      " — placement/interleave-dependent state is reachable "
                      "from a SignatureCache key");
      }
    };
    {
      parallel::ParallelConfig m = base;
      m.nvs1 = 2;
      invariant(m, "nvs1");
    }
    {
      parallel::ParallelConfig m = base;
      m.nvs2 = 2;
      invariant(m, "nvs2");
    }
    {
      parallel::ParallelConfig m = base;
      m.nvsp = 2;
      invariant(m, "nvsp");
    }
    {
      parallel::ParallelConfig m = base;
      m.nvsd = 2;
      invariant(m, "nvsd");
    }
    {
      parallel::ParallelConfig m = base;
      m.interleave = 2;
      invariant(m, "interleave");
    }

    // Fields the compiled signature DOES depend on must separate keys — a
    // collapsed pair would serve one config's signature for the other.
    const auto separates = [&](parallel::ParallelConfig mutated,
                               const std::string& field) {
      if (sig_key(mutated) == base_key) {
        sink.emit(RuleId::kSweepCacheKey, where, 1.0, 0.0,
                  "SignatureKey ignores " + field +
                      " — two configs differing in it would share one "
                      "cached signature");
      }
    };
    {
      parallel::ParallelConfig m = base;
      m.n1 *= 2;
      separates(m, "n1");
    }
    {
      parallel::ParallelConfig m = base;
      m.np *= 2;
      separates(m, "np");
    }
    {
      parallel::ParallelConfig m = base;
      m.nd *= 2;
      separates(m, "nd");
    }
    {
      parallel::ParallelConfig m = base;
      m.microbatches *= 2;
      separates(m, "microbatches");
    }
    {
      parallel::ParallelConfig m = base;
      m.zero = m.zero == parallel::ZeroStage::kOptimizer
                   ? parallel::ZeroStage::kWeights
                   : parallel::ZeroStage::kOptimizer;
      separates(m, "zero stage");
    }
    {
      parallel::ParallelConfig m = base;
      m.ring_attention = !m.ring_attention;
      separates(m, "ring_attention");
    }

    // Same probes for the LayerKey (placement must not reach it either;
    // build_layer output depends on n1/n2/local microbatch).
    const std::int64_t global_batch = base.nd * base.microbatches * 2;
    const LayerKey base_lkey = lay_key(mdl, base, global_batch);
    {
      parallel::ParallelConfig m = base;
      m.nvs1 = 2;
      m.interleave = 2;
      if (!(lay_key(mdl, m, global_batch) == base_lkey)) {
        sink.emit(RuleId::kSweepCacheKey, where, 0.0, 1.0,
                  "LayerKey depends on placement/interleave — "
                  "schedule-dependent state is reachable from a "
                  "LayerCostCache key");
      }
    }
    {
      parallel::ParallelConfig m = base;
      m.n1 *= 2;
      if (lay_key(mdl, m, global_batch) == base_lkey) {
        sink.emit(RuleId::kSweepCacheKey, where, 1.0, 0.0,
                  "LayerKey ignores n1 — two layers differing in it would "
                  "share one cached build");
      }
    }
  }

  // --- sweep-warm-chain + per-point system sanity. ---
  std::vector<ChainKey> chain_keys;
  std::vector<std::size_t> chain_first;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const hw::SystemConfig& sys = points[i];
    sink.merge(analysis::lint_system(sys, lint_opts));

    const ChainKey key{sys.gpu.name, sys.n_gpus};
    std::size_t c = 0;
    for (; c < chain_keys.size(); ++c) {
      if (chain_keys[c] == key) break;
    }
    if (c == chain_keys.size()) {
      chain_keys.push_back(key);
      chain_first.push_back(i);
      continue;
    }
    const hw::SystemConfig& head = points[chain_first[c]];
    if (!same_roofline(head.gpu, sys.gpu) ||
        head.host_bandwidth.value() != sys.host_bandwidth.value()) {
      std::ostringstream msg;
      msg << "grid point " << i << " shares warm-start chain (gpu=\""
          << key.gpu_name << "\", scale=" << key.n_gpus << ") with point "
          << chain_first[c]
          << " but differs in roofline/host link — the engine will detect "
             "the mismatch and cold-start, so the chain name is misleading "
             "and the warm seed wasted";
      sink.emit(RuleId::kSweepWarmChain, "point[" + std::to_string(i) + "]",
                static_cast<double>(chain_first[c]), static_cast<double>(i),
                msg.str(), analysis::Severity::kWarning);
    }
  }

  return sink.take();
}

}  // namespace tfpe::search
