#pragma once
// Execution phases as a first-class axis of the evaluation spine.
//
// Everything below core/ used to hardwire one workload: a training
// iteration (forward + backward per op, Adam state in the memory model,
// 1F1B fill/drain in the pipeline). Kundu et al. (arXiv 2407.14645) show
// the same roofline + collective machinery covers autoregressive
// inference, which splits into two phases with opposite hardware balance:
//   * Prefill — the prompt's tokens in one forward pass, GEMM-shaped and
//     compute-bound like a training forward (no backward, no optimizer,
//     no stored activations);
//   * Decode — one new token per resident request per step, GEMV-shaped
//     and HBM-bound: every step re-reads the stage weights and the
//     accumulated K/V cache.
// core::Workload names the phase plus the sequence-length parameters the
// inference phases need. Training lowers through compile_signature as it
// always has; prefill is that lowering at the prompt length with the
// backward stripped (adapt_to_phase), decode compile_decode_signature.

#include <cstdint>
#include <vector>

namespace tfpe::core {

enum class ExecutionPhase : std::uint8_t {
  kTraining,  ///< fwd + bwd + optimizer (the historical spine).
  kPrefill,   ///< prompt ingestion: forward-only over prompt_len tokens.
  kDecode,    ///< token generation: batch of 1-token queries over a KV cache.
};

/// One workload point: the phase and the sequence lengths that
/// parameterize it. Training reads none of the inference fields (the
/// model's own seq_len governs, as before).
struct Workload {
  ExecutionPhase phase = ExecutionPhase::kTraining;
  std::int64_t prompt_len = 0;  ///< ISL — tokens ingested by prefill.
  std::int64_t output_len = 0;  ///< OSL — tokens generated by decode.
  /// K/V tokens visible to one decode step. Defaults (0) to the average
  /// context over a request's decode life: prompt_len + output_len / 2.
  double kv_len = 0;

  static Workload decode(std::int64_t isl, std::int64_t osl) {
    return {ExecutionPhase::kDecode, isl, osl, 0};
  }

  /// The kv_len default above, resolved.
  double decode_kv_len() const {
    if (kv_len > 0) return kv_len;
    return static_cast<double>(prompt_len) +
           static_cast<double>(output_len) / 2.0;
  }
};

inline const char* to_string(ExecutionPhase p) {
  switch (p) {
    case ExecutionPhase::kTraining: return "training";
    case ExecutionPhase::kPrefill: return "prefill";
    case ExecutionPhase::kDecode: return "decode";
  }
  return "?";
}

/// The [serving] config section / `tfpe serve-plan` axes: one workload
/// (ISL/OSL) swept over replica shapes and batch caps. Lives in core so
/// io/ can parse it without depending on search/.
struct ServingSpec {
  std::int64_t prompt_len = 2048;
  std::int64_t output_len = 256;
  std::vector<std::int64_t> tp{1, 2, 4, 8};
  std::vector<std::int64_t> pp{1};
  std::vector<std::int64_t> batch{1, 2, 4, 8, 16, 32, 64, 128, 256};
  /// Fraction of HBM the scheduler may commit to weights + KV cache.
  double kv_cap_fraction = 0.9;
  /// 0 = take the batch axis as-is; otherwise drop entries above the cap.
  std::int64_t max_batch = 0;

  Workload workload() const {
    return Workload::decode(prompt_len, output_len);
  }
};

}  // namespace tfpe::core
