#pragma once
// Iso-parameter architecture families (Anthony et al., "The Case for
// Co-Designing Model Architectures with Hardware", arXiv 2401.14489): all
// transformer shapes (e, h, f, d, kv_heads, moe_experts) whose
// total_params() lands within a tolerance of a target — the architecture
// axis of the co-design search (search/codesign.hpp).
//
// The family is generated constructively, not by rejection over a 6-D
// grid: for every (depth, heads, head_dim[, kv_heads, moe_experts]) tuple
// the MLP hidden dimension f is SOLVED from the parameter budget
//   params_per_layer(e, f, ...) * depth + vocab * e  ~=  target
// (linear in f), rounded to `hidden_multiple`, and kept only when the
// rounded shape still meets the tolerance, the f/e aspect-ratio window and
// the divisibility constraints (e = heads * head_dim by construction,
// kv_heads | heads). One tuple therefore yields at most one shape, and the
// family size is the grid size minus the aspect/tolerance rejections.
//
// Shapes inherit everything dimension-unrelated from the base config:
// seq_len, vocab, attention kind/window and moe_top_k. Enumeration order is
// deterministic (depth outer, then heads, head_dim, kv_heads, moe_experts)
// so adjacent shapes differ in few dimensions.

#include <cstdint>
#include <vector>

#include "model/transformer.hpp"

namespace tfpe::model {

struct ShapeFamilyOptions {
  /// Parameter budget the family is iso to; 0 = base.total_params().
  std::int64_t target_params = 0;
  /// Relative |total_params() - target| / target admitted, in (0, 1).
  double tolerance = 0.02;

  /// Depth axis: explicit `depths` list, or the inclusive range
  /// [depth_min, depth_max] in steps of depth_step when the list is empty.
  std::vector<std::int64_t> depths;
  std::int64_t depth_min = 32;
  std::int64_t depth_max = 160;
  std::int64_t depth_step = 16;

  /// Head-count axis: explicit `heads` list, or [heads_min, heads_max] in
  /// steps of heads_step. The embedding is e = heads * head_dim.
  std::vector<std::int64_t> heads;
  std::int64_t heads_min = 32;
  std::int64_t heads_max = 256;
  std::int64_t heads_step = 16;

  /// Head-dimension candidates (e_h = e / h).
  std::vector<std::int64_t> head_dims{128, 160};

  /// Admitted MLP aspect-ratio window f / e (the paper's presets sit at 4).
  double aspect_min = 2.0;
  double aspect_max = 6.0;

  /// The solved hidden dimension is rounded to the nearest positive
  /// multiple of this (tensor-core tile friendliness).
  std::int64_t hidden_multiple = 128;

  /// Grouped-query axis: K/V head counts to try; 0 = MHA (kv_heads =
  /// heads). Entries not dividing a shape's head count are skipped for
  /// that shape.
  std::vector<std::int64_t> kv_heads{0};

  /// Mixture-of-experts axis: expert counts to try; 0 = dense.
  std::vector<std::int64_t> moe_experts{0};
};

/// All valid shapes within the options' tolerance of the target parameter
/// count, in deterministic enumeration order. Every returned config passes
/// TransformerConfig::validate(). Throws std::invalid_argument when the
/// options are malformed (non-positive target after defaulting, tolerance
/// outside (0, 1), empty or non-positive axes, min > max, step < 1) — the
/// same conditions io/config_lint reports as TFPE-CODESIGN diagnostics.
std::vector<TransformerConfig> shape_family(const TransformerConfig& base,
                                            const ShapeFamilyOptions& opts);

}  // namespace tfpe::model
