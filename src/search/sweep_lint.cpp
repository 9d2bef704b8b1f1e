#include "search/sweep_lint.hpp"

#include <cstdint>
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

}  // namespace

analysis::LintReport lint_sweep_plan(const std::vector<hw::SystemConfig>& points,
                                     const analysis::LintOptions& lint_opts) {
  DiagnosticSink sink(lint_opts.rules);

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
    if (!hw::same_roofline(head.gpu, sys.gpu) ||
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
