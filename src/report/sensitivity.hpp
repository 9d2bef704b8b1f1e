#pragma once
// Hardware-sensitivity analysis: finite-difference elasticities of the
// optimal iteration time with respect to each hardware parameter. The
// quantitative backing for the paper's Q3 discussion ("FLOP rates are the
// primary factor ... bandwidth/capacity having different roles for the
// different models"): an elasticity of -0.8 on the tensor-core rate means a
// 1% faster tensor core buys ~0.8% faster training.
//
// Because the optimal configuration is re-searched at each perturbed
// design point, the elasticities include re-parallelization effects, not
// just local roofline slopes. The 12 perturbed designs are re-searched by
// one scan (search::run_sweep): they share the GPU name and count, so they
// form one chain that compiles each candidate's tail and block once. Each
// optimum is bitwise find_optimal's at that design.

#include <string>
#include <vector>

#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "search/search.hpp"

namespace tfpe::report {

struct Sensitivity {
  std::string parameter;
  double elasticity = 0;  ///< d log(time) / d log(parameter).
};

/// Elasticities for {tensor FLOPs, vector FLOPs, HBM bandwidth, HBM
/// capacity, NVS bandwidth, IB bandwidth}, each via a symmetric +/- `step`
/// relative perturbation with a full configuration re-search under `opts`
/// (its strategy, global batch, candidate space and modeling extensions).
/// NaN when either perturbed design has no feasible configuration. Throws
/// std::invalid_argument unless 0 < step < 1.
std::vector<Sensitivity> hardware_sensitivities(
    const model::TransformerConfig& mdl, const hw::SystemConfig& sys,
    const search::ScanOptions& opts, double step = 0.25);

}  // namespace tfpe::report
