#pragma once
// Transformer architecture description (paper §III).
//
// The model is a stack of `depth` identical blocks, each containing
// self-attention (QKV projections, fused Logit/Attend, output projection)
// and an MLP (two linear layers with GeLU), with LayerNorms, dropouts and
// residual additions. Dimensions follow the paper's notation:
//   l  sequence length      e  embedding dimension
//   h  attention heads      f  hidden dimension (typically 4e)
//   d  depth (block count)  e_h = e/h head dimension

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tfpe::model {

/// Self-attention variant (paper §V "Outlook": windowed / linear attention
/// are listed as future-work architectures for reducing the ViT's sequence
/// costs — implemented here as model options).
enum class AttentionKind {
  kFull,      ///< Dense softmax attention, O(l^2).
  kWindowed,  ///< Local attention over a `window`-token neighborhood, O(l*w).
  kLinear,    ///< Kernelized linear attention, O(l * e_h) per head.
};

std::string to_string(AttentionKind kind);

struct TransformerConfig {
  std::string name;
  std::int64_t seq_len = 0;     ///< l
  std::int64_t embed = 0;       ///< e
  std::int64_t heads = 0;       ///< h
  std::int64_t depth = 0;       ///< d
  std::int64_t hidden = 0;      ///< f (0 -> defaults to 4e in presets)

  /// Grouped-query attention: number of K/V heads (0 -> = heads, i.e. MHA).
  std::int64_t kv_heads = 0;

  /// Vocabulary size. 0 (the paper's block-level model) excludes the
  /// embedding and output head; > 0 adds a tied (V x e) embedding on the
  /// first pipeline stage and the (e x V) logits matmul + softmax loss on
  /// the last.
  std::int64_t vocab = 0;

  AttentionKind attention = AttentionKind::kFull;
  std::int64_t window = 0;      ///< Window size for kWindowed.

  /// Mixture-of-experts MLP (0 = dense). With E experts, every block's MLP
  /// holds E expert copies of (W1, W2); each token is routed to
  /// `moe_top_k` of them. Experts shard over the data-parallel group
  /// (expert parallelism) and tokens move by AllToAll.
  std::int64_t moe_experts = 0;
  std::int64_t moe_top_k = 2;

  bool is_moe() const { return moe_experts > 0; }

  std::int64_t head_dim() const { return embed / heads; }
  std::int64_t kv_heads_or_default() const {
    return kv_heads == 0 ? heads : kv_heads;
  }
  /// Width of the concatenated K (or V) projection: kv_heads * head_dim.
  std::int64_t kv_embed() const { return kv_heads_or_default() * head_dim(); }
  /// Effective key/value length each query attends over.
  std::int64_t attended_len() const;

  /// Learnable parameters per block: 4 e^2 attention + 2 e f MLP + biases
  /// and the two LayerNorm gains/offsets.
  std::int64_t params_per_layer() const;

  /// Total learnable parameters over all blocks (embeddings/head excluded,
  /// as in the paper's block-level model).
  std::int64_t total_params() const;

  /// FLOPs of one block's forward pass on a batch of `b` unpartitioned
  /// samples — used for MLP:S/A ratio sanity checks (GPT3-1T ~2x, ViT ~0.5x).
  double mlp_flops(std::int64_t b) const;
  double attention_flops(std::int64_t b) const;

  /// Throws std::invalid_argument when dimensions are inconsistent
  /// (e.g. heads not dividing embed) or so large that total_params() would
  /// overflow int64.
  void validate() const;
};

/// GPT3-1T: the paper's LLM pre-training representative,
/// (l,e,h,d) = (2048, 25600, 160, 128), ~1T parameters.
TransformerConfig gpt3_1t();

/// ViT-64K: long-sequence vision transformer for SciML foundation models,
/// (l,e,h,d) = (64800, 12288, 64, 48); l = 720x1440 ERA5 grid at patch 4.
TransformerConfig vit_64k();

/// GPT3-175B, used in the paper's empirical validation on 512 GPUs.
TransformerConfig gpt3_175b();

/// 32K-sequence ViT, used in the paper's empirical validation on 512 GPUs.
TransformerConfig vit_32k();

/// ViT-64K with windowed attention of the given window (paper §V outlook:
/// "linear (or windowed) attention versions of the ViT").
TransformerConfig vit_64k_windowed(std::int64_t window);

/// ViT-64K with linear attention.
TransformerConfig vit_64k_linear();

/// Llama-3-405B-like dense model with grouped-query attention (8 KV heads),
/// exercising the GQA extension: (l,e,h,kv,d,f) = (8192, 16384, 128, 8,
/// 126, 53248).
TransformerConfig llama3_405b();

/// Mixture-of-experts LLM in the GPT-MoE-1.8T class: (l,e,h,d) =
/// (2048, 8192, 64, 40) with 64 experts, top-2 routing (~1.4T total
/// parameters, ~80B active per token).
TransformerConfig gpt_moe_1t();

/// Look up a preset by CLI-friendly name ("gpt3-1t", "vit-64k", "gpt3-175b",
/// "vit-32k", "llama3-405b", "vit-64k-linear"); nullopt for unknown names.
std::optional<TransformerConfig> preset_by_name(const std::string& name);

/// Names accepted by preset_by_name, for usage messages.
std::vector<std::string> preset_names();

}  // namespace tfpe::model
