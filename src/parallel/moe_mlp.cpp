#include "parallel/moe_mlp.hpp"

#include <algorithm>

#include "ops/op_factory.hpp"

namespace tfpe::parallel {

using ops::add_conjugate_comm;
using ops::Collective;
using ops::CommGroup;
using ops::kBytesPerElement;

std::int64_t expert_parallel_degree(const model::TransformerConfig& mdl,
                                    const ParallelConfig& cfg) {
  return std::min<std::int64_t>(cfg.nd, mdl.moe_experts);
}

double append_moe_mlp(std::vector<ops::Op>& v,
                      const model::TransformerConfig& mdl,
                      const ParallelConfig& cfg, double matmul_tokens,
                      double owned_tokens) {
  const double e = static_cast<double>(mdl.embed);
  const double f = static_cast<double>(mdl.hidden);
  const double E = static_cast<double>(mdl.moe_experts);
  const double topk = static_cast<double>(mdl.moe_top_k);
  const double n1 = static_cast<double>(cfg.n1);
  const double ep = static_cast<double>(expert_parallel_degree(mdl, cfg));

  // Router: (tokens, e) x (e, E) per owned token plus the routing softmax.
  {
    auto& router = v.emplace_back(ops::matmul(
        "moe_router", owned_tokens, E, e, 1.0, /*store_a=*/false));
    router.detail = "G:(tokens,E) = Y~ x Wr:(e,E)";
    router.in_elems = 0;  // gate branch: not the residual-stream interface
  }
  v.push_back(ops::vector_op("moe_route_softmax", owned_tokens * E, 5.0,
                             owned_tokens * E));

  // Dispatch: each owned token is sent to top_k experts across the
  // expert-parallel (DP) group; balanced routing returns the same volume.
  const Bytes a2a_bytes = Bytes(kBytesPerElement * owned_tokens * e * topk);
  {
    ops::Op& dispatch = v.emplace_back();
    dispatch.name = "moe_dispatch";
    dispatch.unit = ops::ComputeUnit::Vector;
    dispatch.fwd_bytes = 2.0 * a2a_bytes;  // pack + unpack through HBM
    dispatch.bwd_bytes = 2.0 * a2a_bytes;
    add_conjugate_comm(dispatch, Collective::AllToAll, CommGroup::DP,
                       a2a_bytes);
  }

  // Expert MLP on top_k-times the tokens, weights sharded over n1 as in the
  // dense MLP (Tables I/II shapes with tokens scaled by top_k).
  const double routed_tokens = matmul_tokens * topk;
  {
    auto& fc1 =
        v.emplace_back(ops::matmul("moe_fc1", routed_tokens, f / n1, e));
    fc1.detail = "Z = X_routed x W1[expert]:(e,f/n1)";
  }
  v.push_back(ops::gelu("moe_gelu", routed_tokens * f / n1));
  {
    auto& fc2 =
        v.emplace_back(ops::matmul("moe_fc2", routed_tokens, e, f / n1));
    fc2.detail = "X <- RS(n1) <- Z x W2[expert]:(f/n1,e)";
    fc2.out_elems = 0;  // token layout is data-dependent until the combine
    add_conjugate_comm(fc2, Collective::ReduceScatter, CommGroup::TP1,
                       Bytes(kBytesPerElement * matmul_tokens * e * topk));
  }

  // Combine: routed outputs return to their home GPU and are mixed by the
  // router weights.
  {
    ops::Op& combine = v.emplace_back();
    combine.name = "moe_combine";
    combine.unit = ops::ComputeUnit::Vector;
    combine.fwd_flops = Flops(owned_tokens * e * (2.0 * topk));  // weighted sum
    combine.fwd_bytes = 2.0 * a2a_bytes;
    combine.bwd_flops = combine.fwd_flops;
    combine.bwd_bytes = 2.0 * a2a_bytes;
    add_conjugate_comm(combine, Collective::AllToAll, CommGroup::DP,
                       a2a_bytes);
  }

  // Resident weights: E/ep local experts, each sharded over n1, plus the
  // replicated router.
  const double experts_local = E / ep;
  return experts_local * (2.0 * e * f + f + e) / n1 + e * E;
}

}  // namespace tfpe::parallel
