#include "analysis/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "comm/collective_algorithm.hpp"
#include "ops/op_factory.hpp"

namespace tfpe::analysis {

namespace {

using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;
using ops::kBytesPerMaskElement;

double rel_diff(double expected, double actual) {
  const double scale = std::max(std::abs(expected), std::abs(actual));
  if (scale == 0.0) return 0.0;
  return std::abs(expected - actual) / scale;
}

Collective conjugate(Collective c) {
  switch (c) {
    case Collective::AllGather: return Collective::ReduceScatter;
    case Collective::ReduceScatter: return Collective::AllGather;
    case Collective::Broadcast: return Collective::Reduce;
    case Collective::Reduce: return Collective::Broadcast;
    default: return c;  // AR, P2P, A2A are self-conjugate.
  }
}

struct ExpectedComm {
  Collective coll = Collective::None;
  CommGroup group = CommGroup::TP1;
  double bytes = 0;
};

/// Independent re-derivation of one op's table row: its stored-activation
/// bytes and forward collectives (paper Tables I / II / A2).
struct ExpectedOp {
  std::string name;
  double stored = 0;
  std::vector<ExpectedComm> fwd;
};

/// The per-op expectations for the block (mdl, cfg, B) in canonical order.
/// Formulas mirror the tables, NOT the builder code: volumes are written as
/// the paper's Vol column entries so a builder regression is caught even if
/// it is self-consistent.
std::vector<ExpectedOp> expected_ops(const model::TransformerConfig& mdl,
                                     const parallel::ParallelConfig& cfg,
                                     std::int64_t local_microbatch) {
  const double B = static_cast<double>(local_microbatch);
  const double l = static_cast<double>(mdl.seq_len);
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double h = static_cast<double>(mdl.heads);
  const double eh = static_cast<double>(mdl.head_dim());
  const double ekv = static_cast<double>(mdl.kv_embed());
  const double hkv = static_cast<double>(mdl.kv_heads_or_default());
  const double n1 = static_cast<double>(cfg.n1);
  const double n2 = static_cast<double>(cfg.n2);
  const bool two_d = cfg.strategy != parallel::TpStrategy::TP1D;
  const bool summa = cfg.strategy == parallel::TpStrategy::Summa2D;
  const double eps = kBytesPerElement;

  // Sequence shard the weight matmuls see (full l under 1D TP) and the
  // fully partitioned shard in the LayerNorm/dropout regions.
  const double lq = two_d ? l / n2 : l;
  const double ln_elems = B * l * e / (n1 * n2);

  // K/V volume gathered across n2 (Table II): full sequence for dense
  // attention, the window halo for windowed attention.
  const double kv_gather_len =
      mdl.attention == model::AttentionKind::kWindowed
          ? std::min(l, l / n2 + static_cast<double>(mdl.window))
          : l;
  const double vol_kv = eps * B * kv_gather_len * ekv / n1;

  // Sequence-parallel AllGather/ReduceScatter volume: b*l*e under 1D TP
  // (Table I), b*(l/n2)*e per grid row under 2D TP (Table II).
  const double vol_seq = eps * B * lq * e;

  std::vector<ExpectedOp> exp;
  auto add = [&](std::string name, double stored,
                 std::vector<ExpectedComm> fwd = {}) {
    exp.push_back({std::move(name), stored, std::move(fwd)});
  };

  // --- Self-attention ---
  if (summa) {
    // LN statistics AllReduce across the embedding shards (Table A2).
    add("ln1", eps * ln_elems, {{Collective::AllReduce, CommGroup::TP1, vol_seq}});
  } else {
    add("ln1", eps * ln_elems, {{Collective::AllGather, CommGroup::TP1, vol_seq}});
  }
  if (summa) {
    // SUMMA QKV: A row-panels over TP1 (b*l*e/n2) + B column-panels over
    // TP2 (e*(e+2ekv)/n1), Table A2 V1.
    add("qkv_proj", eps * B * l * e / (n1 * n2),
        {{Collective::Broadcast, CommGroup::TP1, eps * B * l * e / n2},
         {Collective::Broadcast, CommGroup::TP2, eps * e * (e + 2.0 * ekv) / n1}});
  } else {
    // Stores the gathered X~ (replicated over n1).
    add("qkv_proj", eps * B * lq * e);
  }
  {
    // FlashAttention keeps Q/K/V shards + output + softmax statistics.
    const double bh = B * h / n1;
    const double stored = eps * (B * lq * (e + 2.0 * ekv) / n1 + bh * lq * eh) +
                          4.0 * bh * lq;
    std::vector<ExpectedComm> fwd;
    if (two_d) {
      if (mdl.attention == model::AttentionKind::kLinear) {
        // Linear attention reduces the per-head (eh x eh) state across n2.
        fwd.push_back({Collective::AllReduce, CommGroup::TP2,
                       eps * B * (hkv / n1) * eh * eh});
      } else if (cfg.ring_attention) {
        // n2-1 P2P steps circulate both K and V shards around the ring.
        fwd.push_back({Collective::PointToPoint, CommGroup::TP2,
                       2.0 * vol_kv * (n2 - 1.0) / n2});
      } else {
        fwd.push_back({Collective::AllGather, CommGroup::TP2, vol_kv});
        fwd.push_back({Collective::AllGather, CommGroup::TP2, vol_kv});
      }
    }
    add("attention", stored, std::move(fwd));
  }
  add("out_proj", eps * B * lq * e / n1,
      {{Collective::ReduceScatter, CommGroup::TP1, vol_seq}});
  add("attn_dropout", kBytesPerMaskElement * ln_elems);
  add("attn_residual", 0.0);

  // --- MLP ---
  if (summa) {
    add("ln2", eps * ln_elems, {{Collective::AllReduce, CommGroup::TP1, vol_seq}});
  } else {
    add("ln2", eps * ln_elems, {{Collective::AllGather, CommGroup::TP1, vol_seq}});
  }
  // The SUMMA builder keeps the MLP dense (Table A2 has no MoE variant).
  if (mdl.is_moe() && !summa) {
    const double E = static_cast<double>(mdl.moe_experts);
    const double topk = static_cast<double>(mdl.moe_top_k);
    const double owned = ln_elems / e;        // tokens this GPU owns
    const double routed = B * lq * topk;      // tokens through the experts
    const double a2a = eps * owned * e * topk;
    add("moe_router", 0.0);
    add("moe_route_softmax", eps * owned * E);
    add("moe_dispatch", 0.0, {{Collective::AllToAll, CommGroup::DP, a2a}});
    add("moe_fc1", eps * routed * e);
    add("moe_gelu", eps * routed * f / n1);
    add("moe_fc2", eps * routed * f / n1,
        {{Collective::ReduceScatter, CommGroup::TP1, eps * B * lq * e * topk}});
    add("moe_combine", 0.0, {{Collective::AllToAll, CommGroup::DP, a2a}});
  } else if (summa) {
    add("mlp_fc1", eps * B * l * e / (n1 * n2),
        {{Collective::Broadcast, CommGroup::TP1, eps * B * l * e / n2},
         {Collective::Broadcast, CommGroup::TP2, eps * e * f / n1}});
    add("gelu", eps * B * lq * f / n1);
    add("mlp_fc2", eps * B * l * f / (n1 * n2),
        {{Collective::Broadcast, CommGroup::TP1, eps * B * l * f / n2},
         {Collective::Broadcast, CommGroup::TP2, eps * f * e / n1}});
  } else {
    add("mlp_fc1", eps * B * lq * e);
    add("gelu", eps * B * lq * f / n1);
    add("mlp_fc2", eps * B * lq * f / n1,
        {{Collective::ReduceScatter, CommGroup::TP1, vol_seq}});
  }
  add("mlp_dropout", kBytesPerMaskElement * ln_elems);
  add("mlp_residual", 0.0);
  return exp;
}

class Linter {
 public:
  Linter(const model::TransformerConfig& mdl,
         const parallel::ParallelConfig& cfg, std::int64_t local_microbatch,
         const parallel::LayerCost& layer, const LintOptions& opts)
      : mdl_(mdl), cfg_(cfg), b_(local_microbatch), layer_(layer),
        opts_(opts), sink_(opts.rules) {}

  LintReport run() {
    const bool aligned = check_sequence();
    if (aligned) {
      check_activations();
      check_collectives();
    }
    check_shape_chain();
    check_fwd_bwd_comm();
    check_fwd_bwd_flops();
    check_flop_invariance();
    check_pp_boundary();
    return sink_.take();
  }

 private:
  void emit(RuleId rule, std::string_view op, double expected, double actual,
            std::string message,
            std::optional<Severity> sev = std::nullopt) {
    sink_.emit(rule, std::string(op), expected, actual, std::move(message),
               sev);
  }

  bool check_sequence() {
    const auto exp = expected_ops(mdl_, cfg_, b_);
    bool aligned = layer_.ops.size() == exp.size();
    if (!aligned) {
      std::ostringstream msg;
      msg << "expected " << exp.size() << " ops, layer has "
          << layer_.ops.size();
      emit(RuleId::kOpSequence, "<layer>", static_cast<double>(exp.size()),
           static_cast<double>(layer_.ops.size()), msg.str());
      return false;
    }
    for (std::size_t i = 0; i < exp.size(); ++i) {
      if (layer_.ops[i].name != exp[i].name) {
        emit(RuleId::kOpSequence, layer_.ops[i].name, 0, 0,
             "op #" + std::to_string(i) + " is '" +
                 std::string(layer_.ops[i].name) + "', expected '" +
                 exp[i].name + "'");
        aligned = false;
      }
    }
    return aligned;
  }

  void check_activations() {
    const auto exp = expected_ops(mdl_, cfg_, b_);
    double exp_total = 0;
    for (std::size_t i = 0; i < exp.size(); ++i) {
      exp_total += exp[i].stored;
      const double actual = layer_.ops[i].stored_bytes.value();
      if (rel_diff(exp[i].stored, actual) > opts_.bytes_rtol) {
        std::ostringstream msg;
        msg << "op '" << exp[i].name << "' stores " << actual
            << " B, table prescribes " << exp[i].stored << " B";
        emit(RuleId::kActivationTerm, exp[i].name, exp[i].stored, actual, msg.str());
      }
    }
    const double actual_total = layer_.stored_bytes().value();
    if (rel_diff(exp_total, actual_total) > opts_.bytes_rtol) {
      std::ostringstream msg;
      msg << "block stores " << actual_total
          << " B total, activation partition sums to " << exp_total << " B";
      emit(RuleId::kActivationSum, "<layer>", exp_total, actual_total, msg.str());
    }
  }

  void check_collectives() {
    const auto exp = expected_ops(mdl_, cfg_, b_);
    for (std::size_t i = 0; i < exp.size(); ++i) {
      const auto& op = layer_.ops[i];
      if (op.fwd_comm.size() != exp[i].fwd.size()) {
        std::ostringstream msg;
        msg << "op '" << op.name << "' has " << op.fwd_comm.size()
            << " forward collectives, table prescribes " << exp[i].fwd.size();
        emit(RuleId::kCollectiveStructure, op.name,
             static_cast<double>(exp[i].fwd.size()),
             static_cast<double>(op.fwd_comm.size()), msg.str());
        continue;
      }
      for (std::size_t j = 0; j < exp[i].fwd.size(); ++j) {
        const auto& want = exp[i].fwd[j];
        const auto& got = op.fwd_comm[j];
        if (got.collective != want.coll || got.group != want.group) {
          std::ostringstream msg;
          msg << "op '" << op.name << "' collective #" << j << " is "
              << ops::to_string(got.collective) << " over "
              << ops::to_string(got.group) << ", table prescribes "
              << ops::to_string(want.coll) << " over "
              << ops::to_string(want.group);
          emit(RuleId::kCollectiveStructure, op.name, 0, 0, msg.str());
          continue;
        }
        if (rel_diff(want.bytes, got.bytes.value()) > opts_.bytes_rtol) {
          std::ostringstream msg;
          msg << "op '" << op.name << "' " << ops::to_string(want.coll)
              << " volume is " << got.bytes.value() << " B, table Vol is "
              << want.bytes << " B";
          emit(RuleId::kCollectiveVolume, op.name, want.bytes, got.bytes.value(),
               msg.str());
        }
      }
    }
  }

  void check_shape_chain() {
    for (std::size_t i = 0; i + 1 < layer_.ops.size(); ++i) {
      const auto& prod = layer_.ops[i];
      const auto& cons = layer_.ops[i + 1];
      if (prod.out_elems <= 0 || cons.in_elems <= 0) continue;  // unchecked
      if (rel_diff(prod.out_elems, cons.in_elems) > opts_.shape_rtol) {
        std::ostringstream msg;
        msg << "'" << prod.name << "' produces " << prod.out_elems
            << " elements but '" << cons.name << "' consumes "
            << cons.in_elems;
        emit(RuleId::kShapeChain, cons.name, prod.out_elems, cons.in_elems,
             msg.str());
      }
    }
  }

  void check_fwd_bwd_comm() {
    for (const auto& op : layer_.ops) {
      if (op.bwd_comm.size() == op.fwd_comm.size()) {
        for (std::size_t j = 0; j < op.fwd_comm.size(); ++j) {
          const auto& fr = op.fwd_comm[j];
          const auto& br = op.bwd_comm[j];
          if (br.collective != conjugate(fr.collective) ||
              br.group != fr.group) {
            std::ostringstream msg;
            msg << "op '" << op.name << "' backward collective #" << j
                << " is " << ops::to_string(br.collective) << " over "
                << ops::to_string(br.group) << ", conjugate of forward is "
                << ops::to_string(conjugate(fr.collective)) << " over "
                << ops::to_string(fr.group);
            emit(RuleId::kFwdBwdComm, op.name, 0, 0, msg.str());
          } else if (rel_diff(fr.bytes.value(), br.bytes.value()) >
                     opts_.bytes_rtol) {
            std::ostringstream msg;
            msg << "op '" << op.name << "' backward volume "
                << br.bytes.value() << " B != forward volume "
                << fr.bytes.value() << " B";
            emit(RuleId::kFwdBwdComm, op.name, fr.bytes.value(), br.bytes.value(),
                 msg.str());
          }
        }
      } else if (op.bwd_comm.size() == 2 * op.fwd_comm.size()) {
        // SUMMA multiplies: dA and dB are each a broadcast+reduce pair, so
        // the backward carries 2x the forward volume per group.
        for (CommGroup g : {CommGroup::TP1, CommGroup::TP2, CommGroup::DP,
                            CommGroup::PP}) {
          double fwd_vol = 0, bwd_vol = 0;
          for (const auto& r : op.fwd_comm)
            if (r.group == g) fwd_vol += r.bytes.value();
          for (const auto& r : op.bwd_comm)
            if (r.group == g) bwd_vol += r.bytes.value();
          if (rel_diff(2.0 * fwd_vol, bwd_vol) > opts_.bytes_rtol) {
            std::ostringstream msg;
            msg << "op '" << op.name << "' backward volume over "
                << ops::to_string(g) << " is " << bwd_vol
                << " B, expected 2x forward = " << 2.0 * fwd_vol << " B";
            emit(RuleId::kFwdBwdComm, op.name, 2.0 * fwd_vol, bwd_vol, msg.str());
          }
        }
      } else {
        std::ostringstream msg;
        msg << "op '" << op.name << "' has " << op.bwd_comm.size()
            << " backward collectives for " << op.fwd_comm.size()
            << " forward ones (expected equal, or 2x for SUMMA)";
        emit(RuleId::kFwdBwdComm, op.name,
             static_cast<double>(op.fwd_comm.size()),
             static_cast<double>(op.bwd_comm.size()), msg.str());
      }
    }
  }

  void check_fwd_bwd_flops() {
    for (const auto& op : layer_.ops) {
      if (op.fwd_flops.value() <= 0) continue;
      // Compared as multiply-adds (flops + GEMM outputs, see
      // ops::Op::fwd_gemm_outputs): a GEMM's backward is then exactly 2x
      // its forward however thin its shards are, where the (2k-1) counts
      // drift to 1.5x as a wgrad contraction shrinks to one token.
      const double ratio = (op.bwd_flops.value() + op.bwd_gemm_outputs) /
                           (op.fwd_flops.value() + op.fwd_gemm_outputs);
      // Matmuls: two backward multiplies (2x, exactly 2.5x for fused
      // attention's recompute). Vector ops: same element count (~1x).
      const double lo = op.unit == ops::ComputeUnit::TensorCore ? 1.5 : 0.5;
      const double hi = op.unit == ops::ComputeUnit::TensorCore ? 3.0 : 1.5;
      if (ratio < lo || ratio > hi) {
        std::ostringstream msg;
        msg << "op '" << op.name << "' bwd/fwd multiply-add ratio " << ratio
            << " outside [" << lo << ", " << hi << "] for "
            << ops::to_string(op.unit) << " ops";
        emit(RuleId::kFwdBwdFlops, op.name, lo, ratio, msg.str(),
             Severity::kWarning);
      }
    }
  }

  void check_flop_invariance() {
    // The SUMMA builder intentionally keeps a dense MLP for MoE models, so
    // the serial MoE baseline is not comparable.
    if (cfg_.strategy == parallel::TpStrategy::Summa2D && mdl_.is_moe())
      return;
    parallel::ParallelConfig serial = cfg_;
    serial.strategy = parallel::TpStrategy::TP1D;
    serial.n1 = 1;
    serial.n2 = 1;
    serial.ring_attention = false;
    const parallel::LayerCost base = parallel::build_layer_1d(mdl_, serial, b_);
    // Work is conserved as multiply-adds, not as (2k-1)*m*n FLOPs: a GEMM
    // whose contraction k is split over s shards sums to (2k/s - 1)*m*n
    // per shard, (2k - s)*m*n in all — each shard writes its own m*n
    // partial sums. So the expected sharded count is the serial count plus
    // the serial GEMM outputs minus the shards' GEMM outputs.
    const auto outputs = [](const parallel::LayerCost& l, bool fwd) {
      double sum = 0;
      for (const auto& op : l.ops) {
        sum += fwd ? op.fwd_gemm_outputs : op.bwd_gemm_outputs;
      }
      return sum;
    };
    const double tp = static_cast<double>(cfg_.tp());
    const double fwd_scaled = tp * layer_.fwd_flops().value();
    const double bwd_scaled = tp * layer_.bwd_flops().value();
    const double fwd_expected = base.fwd_flops().value() + outputs(base, true) -
                                tp * outputs(layer_, true);
    const double bwd_expected = base.bwd_flops().value() +
                                outputs(base, false) -
                                tp * outputs(layer_, false);
    if (rel_diff(fwd_expected, fwd_scaled) > opts_.flop_rtol) {
      std::ostringstream msg;
      msg << "n1*n2 * per-GPU forward FLOPs = " << fwd_scaled
          << ", expected " << fwd_expected << " (serial block "
          << base.fwd_flops().value()
          << " with per-shard GEMM contractions; dimension splits must "
             "conserve work)";
      emit(RuleId::kFlopInvariance, "<layer>", fwd_expected, fwd_scaled,
           msg.str());
    }
    if (rel_diff(bwd_expected, bwd_scaled) > opts_.flop_rtol) {
      std::ostringstream msg;
      msg << "n1*n2 * per-GPU backward FLOPs = " << bwd_scaled
          << ", expected " << bwd_expected << " (serial block "
          << base.bwd_flops().value() << " with per-shard GEMM contractions)";
      emit(RuleId::kFlopInvariance, "<layer>", bwd_expected, bwd_scaled,
           msg.str());
    }
  }

  void check_pp_boundary() {
    const double expected = kBytesPerElement * static_cast<double>(b_) *
                            static_cast<double>(mdl_.seq_len) *
                            static_cast<double>(mdl_.embed) /
                            (static_cast<double>(cfg_.n1) *
                             static_cast<double>(cfg_.n2));
    const double actual = layer_.pp_boundary_bytes.value();
    if (rel_diff(expected, actual) > opts_.bytes_rtol) {
      std::ostringstream msg;
      msg << "pipeline boundary is " << actual
          << " B, one (b,l,e)/(n1 n2) activation tensor is " << expected
          << " B";
      emit(RuleId::kPpBoundary, "<layer>", expected, actual, msg.str());
    }
  }

  const model::TransformerConfig& mdl_;
  const parallel::ParallelConfig& cfg_;
  std::int64_t b_;
  const parallel::LayerCost& layer_;
  LintOptions opts_;
  DiagnosticSink sink_;
};

}  // namespace

LintReport lint_layer(const model::TransformerConfig& mdl,
                      const parallel::ParallelConfig& cfg,
                      std::int64_t local_microbatch,
                      const parallel::LayerCost& layer,
                      const LintOptions& opts) {
  return Linter(mdl, cfg, local_microbatch, layer, opts).run();
}

LintReport lint_config(const model::TransformerConfig& mdl,
                       const parallel::ParallelConfig& cfg,
                       std::int64_t local_microbatch,
                       const LintOptions& opts) {
  const parallel::LayerCost layer =
      parallel::build_layer(mdl, cfg, local_microbatch);
  return lint_layer(mdl, cfg, local_microbatch, layer, opts);
}

void assert_layer_invariants(const model::TransformerConfig& mdl,
                             const parallel::ParallelConfig& cfg,
                             std::int64_t local_microbatch,
                             const parallel::LayerCost& layer) {
  const LintReport report = lint_layer(mdl, cfg, local_microbatch, layer);
  if (report.errors() > 0) {
    throw std::logic_error("layer invariants violated for " + cfg.describe() +
                           ":\n" + report.summary());
  }
}

LintReport lint_signature(const model::TransformerConfig& mdl,
                          const parallel::ParallelConfig& cfg,
                          const core::CostSignature& sig,
                          const parallel::LayerCost& layer,
                          const LintOptions& opts) {
  (void)mdl;
  DiagnosticSink sink(opts.rules);
  const auto diag = [&](RuleId rule, const std::string& op, double expected,
                        double actual, const std::string& what) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(rule, op, expected, actual, msg.str());
  };
  const auto nonneg = [&](const std::string& op, double v,
                          const std::string& what) {
    if (v < 0) {
      diag(RuleId::kSignatureNonnegative, op, 0.0, v, what + " < 0");
    }
  };

  for (std::size_t i = 0; i < sig.ops.size(); ++i) {
    const core::SigOp& op = sig.ops[i];
    const std::string name = "op[" + std::to_string(i) + "]";
    nonneg(name, op.fwd_flops.value(), "fwd flops");
    nonneg(name, op.bwd_flops.value(), "bwd flops");
    nonneg(name, op.fwd_bytes.value(), "fwd bytes");
    nonneg(name, op.bwd_bytes.value(), "bwd bytes");
    if (op.panels < 1) {
      diag(RuleId::kSignatureNonnegative, name, 1.0,
           static_cast<double>(op.panels), "panels < 1");
    }
  }
  for (const core::SigComm& c : sig.comm) {
    nonneg("<comm>", c.bytes.value(), "collective volume");
  }
  nonneg("<layer>", sig.stored_activation_bytes.value(), "stored activations");
  nonneg("<layer>", sig.pp_boundary_bytes.value(), "pp boundary bytes");
  nonneg("<layer>", sig.weight_params, "weight params");
  nonneg("<mem>", sig.mem.weights.value(), "weight memory");
  nonneg("<mem>", sig.mem.gradients.value(), "gradient memory");
  nonneg("<mem>", sig.mem.optimizer.value(), "optimizer memory");
  nonneg("<mem>", sig.mem.activations.value(), "activation memory");

  if (sig.ops.size() != layer.ops.size()) {
    diag(RuleId::kSignatureOpCount, "<layer>",
         static_cast<double>(layer.ops.size()),
         static_cast<double>(sig.ops.size()), "op record count");
  }

  const auto match = [&](RuleId rule, const std::string& op, double expected,
                         double actual, const std::string& what) {
    if (rel_diff(expected, actual) > opts.bytes_rtol) {
      diag(rule, op, expected, actual, what);
    }
  };
  match(RuleId::kSignatureFlopTotal, "<layer>", layer.fwd_flops().value(),
        sig.fwd_flops().value(), "forward FLOP total");
  match(RuleId::kSignatureFlopTotal, "<layer>", layer.bwd_flops().value(),
        sig.bwd_flops().value(), "backward FLOP total");
  match(RuleId::kSignatureHbmTotal, "<layer>", layer.fwd_hbm_bytes().value(),
        sig.fwd_hbm_bytes().value(), "forward HBM total");
  match(RuleId::kSignatureHbmTotal, "<layer>", layer.bwd_hbm_bytes().value(),
        sig.bwd_hbm_bytes().value(), "backward HBM total");
  for (CommGroup g : {CommGroup::TP1, CommGroup::TP2, CommGroup::DP,
                      CommGroup::PP}) {
    const auto gi = static_cast<std::size_t>(g);
    match(RuleId::kSignatureCommVolume,
          "<group " + std::to_string(gi) + ">",
          layer.fwd_comm_bytes(g).value(), sig.fwd_comm_volume[gi].value(),
          "forward collective volume");
    match(RuleId::kSignatureCommVolume,
          "<group " + std::to_string(gi) + ">",
          layer.bwd_comm_bytes(g).value(), sig.bwd_comm_volume[gi].value(),
          "backward collective volume");
  }
  match(RuleId::kSignatureStoredBytes, "<layer>",
        layer.stored_bytes().value(), sig.stored_activation_bytes.value(),
        "stored activation bytes");
  match(RuleId::kSignaturePpBoundary, "<layer>",
        layer.pp_boundary_bytes.value(), sig.pp_boundary_bytes.value(),
        "pipeline boundary bytes");

  (void)cfg;
  return sink.take();
}

LintReport lint_topology(const hw::Topology& topo, std::int64_t n_gpus,
                         const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  if (topo.empty()) {
    return sink.take();  // Resolves to the canonical two-level fabric.
  }
  const auto diag = [&](RuleId rule, const std::string& op, double expected,
                        double actual, const std::string& what,
                        Severity sev) {
    std::ostringstream msg;
    msg << what << ": expected " << expected << ", got " << actual;
    sink.emit(rule, op, expected, actual, msg.str(), sev);
  };

  if (topo.depth() > hw::Topology::kMaxDepth) {
    diag(RuleId::kTopologyDepth, "<topology>",
         static_cast<double>(hw::Topology::kMaxDepth),
         static_cast<double>(topo.depth()), "fabric depth over kMaxDepth",
         Severity::kError);
  }

  bool shape_ok = true;
  for (std::size_t i = 0; i < topo.levels.size(); ++i) {
    const hw::FabricLevel& lvl = topo.levels[i];
    const std::string name =
        lvl.name.empty() ? "level[" + std::to_string(i) + "]" : lvl.name;
    if (lvl.latency < Seconds(0)) {
      diag(RuleId::kTopologyPositive, name, 0.0, lvl.latency.value(),
           "negative hop latency", Severity::kError);
      shape_ok = false;
    }
    if (!(lvl.bandwidth > BytesPerSec(0))) {
      diag(RuleId::kTopologyPositive, name, 0.0, lvl.bandwidth.value(),
           "link bandwidth must be > 0", Severity::kError);
      shape_ok = false;
    }
    if (!(lvl.rails > 0.0)) {
      diag(RuleId::kTopologyPositive, name, 1.0, lvl.rails,
           "rail count must be > 0", Severity::kError);
      shape_ok = false;
    }
    if (lvl.oversubscription < 1.0) {
      diag(RuleId::kTopologyPositive, name, 1.0, lvl.oversubscription,
           "oversubscription ratio below 1", Severity::kError);
      shape_ok = false;
    }
  }

  // Fan-in coverage: the product of bounded fan-ins is the GPU count the
  // fabric can host. An unbounded top level (fan_in <= 0) covers any count.
  if (n_gpus > 0) {
    bool unbounded = false;
    std::int64_t capacity = 1;
    for (const hw::FabricLevel& lvl : topo.levels) {
      if (lvl.fan_in <= 0) {
        unbounded = true;
        break;
      }
      capacity *= lvl.fan_in;
    }
    if (!unbounded && capacity < n_gpus) {
      diag(RuleId::kTopologyFanIn, "<topology>", static_cast<double>(n_gpus),
           static_cast<double>(capacity),
           "fan-in product smaller than the GPU count", Severity::kError);
    } else if (!unbounded && capacity > n_gpus) {
      diag(RuleId::kTopologyFanIn, "<topology>", static_cast<double>(n_gpus),
           static_cast<double>(capacity),
           "fan-in product exceeds the GPU count (fabric oversized)",
           Severity::kWarning);
    }
  }

  // Per-member tier bandwidth should not increase outward: an outer level
  // faster than an inner one is legal in the model but almost always means
  // swapped levels or a units typo in the spec.
  if (shape_ok) {
    for (std::size_t i = 1; i < topo.levels.size(); ++i) {
      const hw::FabricLevel& lvl = topo.levels[i];
      const double inner =
          i == 1 ? (topo.levels[0].bandwidth * topo.efficiency).value()
                 : (topo.levels[i - 1].bandwidth *
                    (topo.levels[i - 1].rails * topo.efficiency))
                       .value();
      const double outer =
          (lvl.bandwidth * (lvl.rails * topo.efficiency)).value();
      if (outer > inner) {
        diag(RuleId::kTopologyMonotoneBw,
             lvl.name.empty() ? "level[" + std::to_string(i) + "]" : lvl.name,
             inner, outer,
             "per-member bandwidth increases outward across this level",
             Severity::kWarning);
      }
    }
  }
  return sink.take();
}

LintReport lint_placement(const comm::GroupPlacement& g,
                          const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  if (auto why = comm::invalid_placement_reason(g)) {
    std::ostringstream msg;
    msg << *why << " (size=" << g.size << ", nvs=" << g.nvs << ")";
    sink.emit(RuleId::kPlacementValid, "<placement>",
              static_cast<double>(g.size), static_cast<double>(g.nvs),
              msg.str());
  }
  return sink.take();
}

LintReport lint_placement(const hw::Topology& topo,
                          const comm::GroupPlacement& g,
                          const LintOptions& opts) {
  DiagnosticSink sink(opts.rules);
  sink.merge(lint_placement(g, opts));
  const std::int64_t leaf = topo.leaf_fan_in();
  if (leaf > 0 && g.nvs > leaf) {
    std::ostringstream msg;
    msg << "fast-domain span nvs=" << g.nvs
        << " exceeds the fabric's leaf fan-in " << leaf
        << " (group size " << g.size << ")";
    sink.emit(RuleId::kPlacementLeafFanIn, "<placement>",
              static_cast<double>(leaf), static_cast<double>(g.nvs),
              msg.str());
  }
  return sink.take();
}

}  // namespace tfpe::analysis
