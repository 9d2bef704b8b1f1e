#include "model/transformer.hpp"

#include <stdexcept>

namespace tfpe::model {

std::string to_string(AttentionKind kind) {
  switch (kind) {
    case AttentionKind::kFull: return "full";
    case AttentionKind::kWindowed: return "windowed";
    case AttentionKind::kLinear: return "linear";
  }
  return "?";
}

std::int64_t TransformerConfig::attended_len() const {
  switch (attention) {
    case AttentionKind::kFull: return seq_len;
    case AttentionKind::kWindowed:
      return window < seq_len ? window : seq_len;
    case AttentionKind::kLinear:
      // Linear attention contracts through an (e_h x e_h) state per head.
      return head_dim();
  }
  return seq_len;
}

namespace {

/// int64 arithmetic that throws on overflow: validate() runs the
/// parameter-count formulas in it, so every dimension it accepts keeps
/// params_per_layer() and total_params() (plain int64) inside int64.
struct CheckedInt {
  std::int64_t v = 0;

  friend CheckedInt operator+(CheckedInt a, CheckedInt b) {
    return checked(__builtin_add_overflow(a.v, b.v, &a.v), a);
  }
  friend CheckedInt operator*(CheckedInt a, CheckedInt b) {
    return checked(__builtin_mul_overflow(a.v, b.v, &a.v), a);
  }
  static CheckedInt checked(bool overflowed, CheckedInt result) {
    if (overflowed) {
      throw std::invalid_argument(
          "TransformerConfig: dimensions overflow the int64 parameter count");
    }
    return result;
  }
};

template <class Int>
Int params_per_layer_in(const TransformerConfig& m) {
  const Int two{2}, e{m.embed}, kv{m.kv_embed()}, f{m.hidden};
  // WQ and Wp are (e, e); WK and WV are (e, kv_embed) under GQA.
  const Int attn = two * e * e + two * e * kv + two * e + two * kv;
  Int mlp = two * e * f + f + e;
  if (m.is_moe()) {
    // E expert copies plus the (e x E) router.
    const Int experts{m.moe_experts};
    mlp = mlp * experts + e * experts;
  }
  const Int ln = two * two * e;  // two LayerNorms, gain + offset
  return attn + mlp + ln;
}

template <class Int>
Int total_params_in(const TransformerConfig& m) {
  return params_per_layer_in<Int>(m) * Int{m.depth} +
         Int{m.vocab} * Int{m.embed};  // tied embedding
}

}  // namespace

std::int64_t TransformerConfig::params_per_layer() const {
  return params_per_layer_in<std::int64_t>(*this);
}

std::int64_t TransformerConfig::total_params() const {
  return total_params_in<std::int64_t>(*this);
}

double TransformerConfig::mlp_flops(std::int64_t b) const {
  // Two matmuls: (b l, e)x(e, f) and (b l, f)x(f, e); MoE runs them
  // moe_top_k times per token.
  const double bl = static_cast<double>(b) * static_cast<double>(seq_len);
  const double routed = is_moe() ? static_cast<double>(moe_top_k) : 1.0;
  return routed * 2.0 * bl * static_cast<double>(embed) *
         static_cast<double>(hidden) * 2.0;
}

double TransformerConfig::attention_flops(std::int64_t b) const {
  const double bl = static_cast<double>(b) * static_cast<double>(seq_len);
  const double e = static_cast<double>(embed);
  const double lkv = static_cast<double>(attended_len());
  // Q + output projections (e x e), K/V projections (e x kv_embed);
  // Logit + Attend: 2 batched matmuls of b h (l x e_h)(e_h x lkv).
  const double proj =
      2.0 * bl * (2.0 * e * e + 2.0 * e * static_cast<double>(kv_embed()));
  const double la = 2.0 * 2.0 * bl * lkv * e;
  return proj + la;
}

void TransformerConfig::validate() const {
  if (seq_len < 1 || embed < 1 || heads < 1 || depth < 1 || hidden < 1) {
    throw std::invalid_argument("TransformerConfig: dimensions must be >= 1");
  }
  if (embed % heads != 0) {
    throw std::invalid_argument("TransformerConfig: heads must divide embed");
  }
  if (kv_heads != 0 && heads % kv_heads != 0) {
    throw std::invalid_argument("TransformerConfig: kv_heads must divide heads");
  }
  if (attention == AttentionKind::kWindowed && window < 1) {
    throw std::invalid_argument("TransformerConfig: windowed attention needs window >= 1");
  }
  if (is_moe() && (moe_top_k < 1 || moe_top_k > moe_experts)) {
    throw std::invalid_argument(
        "TransformerConfig: moe_top_k must be in [1, moe_experts]");
  }
  total_params_in<CheckedInt>(*this);
}

namespace {
TransformerConfig make(std::string name, std::int64_t l, std::int64_t e,
                       std::int64_t h, std::int64_t d, std::int64_t f = 0) {
  TransformerConfig cfg{std::move(name), l, e, h, d, f == 0 ? 4 * e : f};
  cfg.validate();
  return cfg;
}
}  // namespace

TransformerConfig gpt3_1t() { return make("GPT3-1T", 2048, 25600, 160, 128); }

TransformerConfig vit_64k() { return make("ViT-64K", 64800, 12288, 64, 48); }

TransformerConfig gpt3_175b() { return make("GPT3-175B", 2048, 12288, 96, 96); }

TransformerConfig vit_32k() {
  // The paper validates a "32K ViT" on 512 A100s without listing full
  // hyper-parameters; we take half the ViT-64K sequence (32400 = 720x1440 at
  // patch ~5.66 -> rounded grid) with a mid-size backbone.
  return make("ViT-32K", 32400, 6144, 48, 24);
}

TransformerConfig vit_64k_windowed(std::int64_t window) {
  TransformerConfig cfg = vit_64k();
  cfg.name = "ViT-64K-w" + std::to_string(window);
  cfg.attention = AttentionKind::kWindowed;
  cfg.window = window;
  cfg.validate();
  return cfg;
}

TransformerConfig vit_64k_linear() {
  TransformerConfig cfg = vit_64k();
  cfg.name = "ViT-64K-linear";
  cfg.attention = AttentionKind::kLinear;
  cfg.validate();
  return cfg;
}

TransformerConfig gpt_moe_1t() {
  TransformerConfig cfg = make("GPT-MoE-1T", 2048, 8192, 64, 40);
  cfg.moe_experts = 64;
  cfg.moe_top_k = 2;
  cfg.validate();
  return cfg;
}

std::optional<TransformerConfig> preset_by_name(const std::string& name) {
  if (name == "gpt-moe-1t") return gpt_moe_1t();
  if (name == "gpt3-1t") return gpt3_1t();
  if (name == "vit-64k") return vit_64k();
  if (name == "gpt3-175b") return gpt3_175b();
  if (name == "vit-32k") return vit_32k();
  if (name == "llama3-405b") return llama3_405b();
  if (name == "vit-64k-linear") return vit_64k_linear();
  return std::nullopt;
}

std::vector<std::string> preset_names() {
  return {"gpt3-1t", "vit-64k", "gpt3-175b", "vit-32k", "llama3-405b",
          "vit-64k-linear", "gpt-moe-1t"};
}

TransformerConfig llama3_405b() {
  // Llama-3 uses a three-matrix SwiGLU MLP with f = 53248; this block model
  // has a two-matrix MLP, so we use the parameter-equivalent hidden
  // 1.5 * 53248 = 79872 to land at ~405B parameters.
  TransformerConfig cfg{"Llama3-405B", 8192, 16384, 128, 126, 79872};
  cfg.kv_heads = 8;
  cfg.validate();
  return cfg;
}

}  // namespace tfpe::model
