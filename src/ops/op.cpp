#include "ops/op.hpp"

#include <stdexcept>

namespace tfpe::ops {

void CommList::throw_full() {
  throw std::logic_error(
      "ops::CommList: an op pass holds at most 4 collectives");
}

std::string to_string(Collective c) {
  switch (c) {
    case Collective::None: return "-";
    case Collective::AllGather: return "AG";
    case Collective::ReduceScatter: return "RS";
    case Collective::AllReduce: return "AR";
    case Collective::Broadcast: return "B";
    case Collective::Reduce: return "R";
    case Collective::PointToPoint: return "P2P";
    case Collective::AllToAll: return "A2A";
  }
  return "?";
}

std::string to_string(CommGroup g) {
  switch (g) {
    case CommGroup::TP1: return "TP1";
    case CommGroup::TP2: return "TP2";
    case CommGroup::DP: return "DP";
    case CommGroup::PP: return "PP";
  }
  return "?";
}

std::string to_string(ComputeUnit u) {
  switch (u) {
    case ComputeUnit::TensorCore: return "tensor";
    case ComputeUnit::Vector: return "vector";
    case ComputeUnit::None: return "none";
  }
  return "?";
}

}  // namespace tfpe::ops
