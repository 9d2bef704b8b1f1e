#pragma once
// Operation descriptors — the unit of the paper's S1 counting stage.
//
// Each transformer-block operation is described by its per-GPU, per-microbatch
// FLOP count, HBM traffic, stored-activation footprint and communication
// requests (collective type, group, bytes). The evaluator (S2) converts these
// into time with the roofline + collective models. All counts carry strong
// unit types (util/units.hpp) so a bytes/flops mix-up cannot compile.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/units.hpp"

namespace tfpe::ops {

/// Which execution unit services the op's FLOPs (paper: tensor-core rate for
/// matrix multiplies, vector rate for LN/Softmax/GeLU/Dropout/residual).
enum class ComputeUnit { TensorCore, Vector, None };

enum class Collective {
  None,
  AllGather,
  ReduceScatter,
  AllReduce,
  Broadcast,
  Reduce,
  PointToPoint,
  AllToAll,  ///< MoE token dispatch/combine (expert parallelism).
};

/// Which orthogonal GPU group a communication runs over.
/// TP1 = first tensor-parallel dimension (n1), TP2 = second (n2),
/// DP = data parallel, PP = pipeline neighbors.
enum class CommGroup { TP1, TP2, DP, PP };

struct CommRequest {
  Collective collective = Collective::None;
  CommGroup group = CommGroup::TP1;
  Bytes bytes;  ///< V: bytes per GPU entering the collective.
};

/// The collectives of one op pass, held inline: at most kCapacity
/// requests, which is a SUMMA multiply's backward (a Broadcast and a Reduce
/// for each of dA and dB). A push past the capacity throws
/// std::logic_error, so a builder that outgrows the list fails loudly
/// instead of dropping a collective.
class CommList {
 public:
  static constexpr std::size_t kCapacity = 4;

  void push_back(const CommRequest& req) {
    if (size_ == kCapacity) throw_full();
    reqs_[size_++] = req;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }
  CommRequest& operator[](std::size_t i) { return reqs_[i]; }
  const CommRequest& operator[](std::size_t i) const { return reqs_[i]; }
  CommRequest* begin() { return reqs_.data(); }
  CommRequest* end() { return reqs_.data() + size_; }
  const CommRequest* begin() const { return reqs_.data(); }
  const CommRequest* end() const { return reqs_.data() + size_; }

 private:
  [[noreturn]] static void throw_full();

  std::array<CommRequest, kCapacity> reqs_{};
  std::size_t size_ = 0;
};

/// One op of a block. `name` and `detail` view string literals (the
/// factories take the name as an ops::Label), so an Op owns no heap memory
/// and copies as plain bytes.
struct Op {
  std::string_view name;
  /// Human-readable partitioned-shape description ("(b, l/n2, e) x (e, f/n1)")
  /// used to regenerate the paper's Tables I / II / A2. Assign only string
  /// literals.
  std::string_view detail;
  ComputeUnit unit = ComputeUnit::Vector;

  // Forward pass counts (per GPU, per microbatch).
  Flops fwd_flops;
  Bytes fwd_bytes;
  CommList fwd_comm;

  // Backward pass counts (per GPU, per microbatch).
  Flops bwd_flops;
  Bytes bwd_bytes;
  CommList bwd_comm;

  /// Output elements of the op's GEMMs per GPU: m*n forward, m*k + k*n
  /// backward (dgrad and wgrad), 0 for every other op. A GEMM is counted
  /// as (2k-1)*m*n FLOPs, i.e. 2 multiply-adds per term minus one per
  /// output element, so flops + gemm outputs is twice the multiply-add
  /// count — the quantity any split of the GEMM conserves. Splitting the
  /// contraction k over s shards makes each shard write its own m*n partial
  /// sums: the shards then sum to (2k - s)*m*n FLOPs, and the invariant
  /// analyzer uses these counts to expect exactly that.
  double fwd_gemm_outputs = 0;
  double bwd_gemm_outputs = 0;

  /// Bytes of intermediate activations this op keeps resident per microbatch
  /// for its backward pass (FlashAttention recomputation already accounted).
  Bytes stored_bytes;

  /// Forward dataflow interface in activation ELEMENTS (not bytes): the
  /// number of input elements this op consumes from its predecessor and the
  /// number of output elements it hands to its successor, after any
  /// collective attached to this op has resized the tensor. 0 means
  /// "unchecked" — the invariant analyzer skips the producer/consumer chain
  /// link at such ops (e.g. MoE dispatch, whose layout is data-dependent).
  double in_elems = 0;
  double out_elems = 0;

  // SUMMA panel metadata: when `summa_panels` > 1, the fwd/bwd TP comm of
  // this op is a sequence of per-panel broadcasts that overlap with the
  // per-panel matmuls; the evaluator applies the prologue/exposed model.
  // `summa_k` is the full contraction dimension (per-GPU) so panel matmul
  // efficiency can be derated via the FLOPs-latency term.
  std::int64_t summa_panels = 1;
  double summa_k = 0;
};

static_assert(std::is_trivially_copyable_v<Op>);

std::string to_string(Collective c);
std::string to_string(CommGroup g);
std::string to_string(ComputeUnit u);

}  // namespace tfpe::ops
