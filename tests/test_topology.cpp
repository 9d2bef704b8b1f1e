// Hierarchical fabric topology layer: golden bitwise equivalence against
// the frozen legacy two-level closed forms, builders, placements, lint
// rules, the hierarchical two-phase algorithm, DES cross-validation,
// [topology] config round-trip, lower-bound conservativeness, and the
// topology sweep axis.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/consistency.hpp"
#include "analysis/invariants.hpp"
#include "comm/collective_algorithm.hpp"
#include "comm/collective_model.hpp"
#include "core/evaluator.hpp"
#include "core/lower_bounds.hpp"
#include "hw/system.hpp"
#include "hw/topology.hpp"
#include "io/config_file.hpp"
#include "search/enumerate.hpp"
#include "search/sweep.hpp"
#include "sim/ring_sim.hpp"

namespace tfpe {
namespace {

using comm::GroupPlacement;
using ops::Collective;

// ---------------------------------------------------------------------------
// Frozen legacy closed forms: the exact pre-topology two-level expressions
// this PR replaced (copied verbatim from the old comm/collective_model.cpp).
// The adapter must reproduce them BIT FOR BIT on every valid placement.
// ---------------------------------------------------------------------------
namespace legacy {

Seconds ring_latency(const hw::NetworkSpec& net, GroupPlacement g) {
  const std::int64_t nvs = std::clamp<std::int64_t>(g.nvs, 1, g.size);
  const double nodes = static_cast<double>(g.size) / static_cast<double>(nvs);
  const double slow_hops = nodes - 1.0;
  const double fast_hops = static_cast<double>(g.size) - nodes;
  return net.ib_latency * slow_hops + net.nvs_latency * fast_hops;
}

BytesPerSec effective_bandwidth(const hw::NetworkSpec& net, GroupPlacement g) {
  const std::int64_t nvs = std::clamp<std::int64_t>(g.nvs, 1, g.size);
  const BytesPerSec bw_fast = net.effective_nvs_bandwidth();
  if (nvs == g.size) return bw_fast;
  BytesPerSec bw_slow =
      static_cast<double>(nvs) * net.effective_ib_bandwidth_per_gpu();
  if (net.pod_size > 0 && g.size > net.pod_size && net.oversubscription > 1) {
    bw_slow /= net.oversubscription;
  }
  return std::min(bw_slow, bw_fast);
}

Seconds tree_time(const hw::NetworkSpec& net, Collective coll, Bytes bytes,
                  GroupPlacement g) {
  if (g.size <= 1 || bytes <= Bytes(0)) return Seconds(0);
  const std::int64_t nvs = std::clamp<std::int64_t>(g.nvs, 1, g.size);
  const double nodes = static_cast<double>(g.size) / static_cast<double>(nvs);
  const double slow_depth = nodes > 1 ? std::ceil(std::log2(nodes)) : 0.0;
  const double fast_depth =
      nvs > 1 ? std::ceil(std::log2(static_cast<double>(nvs))) : 0.0;
  Seconds latency = net.ib_latency * slow_depth + net.nvs_latency * fast_depth;
  double passes = 1.0;
  if (coll == Collective::AllReduce) {
    passes = 2.0;
    latency *= 2.0;
  }
  return latency + passes * (bytes / legacy::effective_bandwidth(net, g));
}

Seconds collective_time(const hw::NetworkSpec& net, Collective coll,
                        Bytes bytes, GroupPlacement g) {
  if (coll == Collective::None || bytes == Bytes(0)) return Seconds(0);
  if (coll == Collective::PointToPoint) {
    const bool in_domain = g.nvs >= 2;
    const BytesPerSec bw = in_domain ? net.effective_nvs_bandwidth()
                                     : net.effective_ib_bandwidth_per_gpu();
    const Seconds alpha = in_domain ? net.nvs_latency : net.ib_latency;
    return alpha + bytes / bw;
  }
  if (g.size <= 1) return Seconds(0);

  const double gsz = static_cast<double>(g.size);
  const double ring_factor = (gsz - 1.0) / gsz;
  double factor = ring_factor;
  Seconds latency = legacy::ring_latency(net, g);
  if (coll == Collective::AllReduce) {
    factor = 2.0 * ring_factor;
    latency *= 2.0;
  }
  Seconds best = latency + factor * (bytes / legacy::effective_bandwidth(net, g));
  if (net.enable_ll) {
    const Seconds ll = latency * net.ll_latency_scale +
                       factor * (bytes / (legacy::effective_bandwidth(net, g) *
                                          net.ll_bandwidth_scale));
    best = std::min(best, ll);
  }
  if (net.enable_tree &&
      (coll == Collective::AllReduce || coll == Collective::Broadcast ||
       coll == Collective::Reduce)) {
    best = std::min(best, legacy::tree_time(net, coll, bytes, g));
  }
  return best;
}

}  // namespace legacy

std::vector<std::pair<std::string, hw::NetworkSpec>> golden_nets() {
  std::vector<std::pair<std::string, hw::NetworkSpec>> nets;
  nets.emplace_back("b200", hw::network_preset(hw::GpuGeneration::B200));
  nets.emplace_back("h200", hw::network_preset(hw::GpuGeneration::H200));
  nets.emplace_back("a100", hw::network_preset(hw::GpuGeneration::A100));
  nets.emplace_back("perlmutter", hw::perlmutter(64).net);

  hw::NetworkSpec tree = hw::network_preset(hw::GpuGeneration::B200);
  tree.enable_tree = true;
  nets.emplace_back("b200+tree", tree);

  hw::NetworkSpec ll = hw::network_preset(hw::GpuGeneration::B200);
  ll.enable_ll = true;
  nets.emplace_back("b200+ll", ll);

  hw::NetworkSpec oversub = hw::network_preset(hw::GpuGeneration::B200);
  oversub.pod_size = 256;
  oversub.oversubscription = 4.0;
  nets.emplace_back("b200+oversub", oversub);

  hw::NetworkSpec rails = hw::network_preset(hw::GpuGeneration::H200);
  rails.nics_per_gpu = 4.0;
  nets.emplace_back("h200+rails", rails);
  return nets;
}

TEST(TopologyGolden, AdapterReproducesLegacyClosedFormsBitwise) {
  const std::vector<GroupPlacement> placements = {
      {1, 1},   {2, 1},    {2, 2},    {8, 2},     {8, 8},   {32, 8},
      {64, 4},  {96, 8},   {256, 8},  {512, 64},  {1024, 8}, {4096, 8}};
  const std::vector<Collective> colls = {
      Collective::AllGather, Collective::ReduceScatter, Collective::AllReduce,
      Collective::Broadcast, Collective::Reduce,         Collective::AllToAll};
  const std::vector<double> volumes = {1.0, 1e3, 1e6, 1e9};

  for (const auto& [name, net] : golden_nets()) {
    for (const GroupPlacement g : placements) {
      for (const Collective coll : colls) {
        for (const double v : volumes) {
          const double got =
              comm::collective_time(net, coll, Bytes(v), g).value();
          const double want =
              legacy::collective_time(net, coll, Bytes(v), g).value();
          EXPECT_EQ(got, want)
              << name << " coll=" << static_cast<int>(coll) << " g=" << g.size
              << "/" << g.nvs << " V=" << v;
        }
      }
      EXPECT_EQ(comm::ring_latency(net, g).value(),
                legacy::ring_latency(net, g).value())
          << name << " g=" << g.size << "/" << g.nvs;
      EXPECT_EQ(comm::effective_bandwidth(net, g).value(),
                legacy::effective_bandwidth(net, g).value())
          << name << " g=" << g.size << "/" << g.nvs;
    }
    for (const GroupPlacement g : {GroupPlacement{2, 1}, GroupPlacement{2, 2}}) {
      for (const double v : volumes) {
        EXPECT_EQ(
            comm::collective_time(net, Collective::PointToPoint, Bytes(v), g)
                .value(),
            legacy::collective_time(net, Collective::PointToPoint, Bytes(v), g)
                .value())
            << name << " p2p nvs=" << g.nvs;
      }
    }
  }
}

TEST(TopologyGolden, ExplicitTwoLevelFabricMatchesAdapter) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology topo = hw::two_level_topology(net, 8, 1024);
  for (const GroupPlacement g :
       {GroupPlacement{8, 8}, GroupPlacement{64, 8}, GroupPlacement{1024, 4}}) {
    for (const Collective coll :
         {Collective::AllGather, Collective::AllReduce}) {
      EXPECT_EQ(comm::collective_time(topo, coll, Bytes(1e8), g).value(),
                comm::collective_time(net, coll, Bytes(1e8), g).value());
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-evaluator equivalence: a SystemConfig with an explicitly attached
// canonical fabric (and its degenerate three-level extension) must evaluate
// bit-for-bit like the legacy implicit two-level system.
// ---------------------------------------------------------------------------

void expect_bitwise(const core::EvalResult& ref, const core::EvalResult& got,
                    const std::string& label) {
  ASSERT_EQ(ref.feasible, got.feasible) << label;
  EXPECT_EQ(ref.reason, got.reason) << label;
  EXPECT_EQ(ref.time.compute, got.time.compute) << label;
  EXPECT_EQ(ref.time.memory, got.time.memory) << label;
  EXPECT_EQ(ref.time.tp_comm, got.time.tp_comm) << label;
  EXPECT_EQ(ref.time.pp_comm, got.time.pp_comm) << label;
  EXPECT_EQ(ref.time.dp_comm, got.time.dp_comm) << label;
  EXPECT_EQ(ref.time.bubble, got.time.bubble) << label;
  EXPECT_EQ(ref.time.optimizer, got.time.optimizer) << label;
  EXPECT_EQ(ref.iteration(), got.iteration()) << label;
  EXPECT_EQ(ref.mem.total().value(), got.mem.total().value()) << label;
}

parallel::ParallelConfig paper_optimum() {
  parallel::ParallelConfig c;
  c.strategy = parallel::TpStrategy::TP1D;
  c.n1 = 8;
  c.np = 64;
  c.nd = 32;
  c.microbatches = 128;
  c.nvs1 = 8;
  return c;
}

TEST(TopologyEval, ExplicitCanonicalFabricIsBitwiseIdentical) {
  const model::TransformerConfig mdl = model::gpt3_1t();
  const hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8,
                                               16384);
  hw::SystemConfig with_fabric = sys;
  with_fabric.fabric = hw::two_level_topology(sys.net, sys.nvs_domain,
                                              sys.n_gpus);
  const auto ref = core::evaluate(mdl, sys, paper_optimum(), 4096);
  const auto got = core::evaluate(mdl, with_fabric, paper_optimum(), 4096);
  ASSERT_TRUE(ref.feasible) << ref.reason;
  expect_bitwise(ref, got, "explicit two-level");
}

TEST(TopologyEval, DegenerateLeafSpineIsBitwiseIdentical) {
  // leaf pods of exactly one NVS domain (fan-in 1, no oversubscription):
  // the middle level contributes zero hops and zero extra bandwidth terms,
  // so the three-level walk is bitwise the two-level walk.
  const model::TransformerConfig mdl = model::gpt3_1t();
  const hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8,
                                               16384);
  hw::SystemConfig degenerate = sys;
  degenerate.fabric =
      hw::leaf_spine_topology(sys.net, sys.nvs_domain, sys.nvs_domain,
                              sys.n_gpus, 1.0);
  const auto ref = core::evaluate(mdl, sys, paper_optimum(), 4096);
  const auto got = core::evaluate(mdl, degenerate, paper_optimum(), 4096);
  ASSERT_TRUE(ref.feasible) << ref.reason;
  expect_bitwise(ref, got, "degenerate leaf/spine");
}

TEST(TopologyEval, OversubscribedSpineIsNeverFaster) {
  const model::TransformerConfig mdl = model::gpt3_1t();
  const hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8,
                                               16384);
  hw::SystemConfig tapered = sys;
  tapered.fabric =
      hw::leaf_spine_topology(sys.net, sys.nvs_domain, 64, sys.n_gpus, 4.0);
  const auto ref = core::evaluate(mdl, sys, paper_optimum(), 4096);
  const auto got = core::evaluate(mdl, tapered, paper_optimum(), 4096);
  ASSERT_TRUE(ref.feasible) << ref.reason;
  ASSERT_TRUE(got.feasible) << got.reason;
  EXPECT_GE(got.iteration(), ref.iteration());
}

// ---------------------------------------------------------------------------
// Builders and placements.
// ---------------------------------------------------------------------------

TEST(TopologyBuilders, TwoLevelShape) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t = hw::two_level_topology(net, 8, 1024);
  ASSERT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.levels[0].name, "nvs");
  EXPECT_EQ(t.levels[0].fan_in, 8);
  EXPECT_EQ(t.levels[1].name, "ib");
  EXPECT_EQ(t.levels[1].fan_in, 128);
  EXPECT_EQ(t.total_capacity(), 1024);
  EXPECT_DOUBLE_EQ(t.efficiency, net.efficiency);
  EXPECT_EQ(t.describe(), "nvs8 > ib128");
}

TEST(TopologyBuilders, LeafSpineShapeAndValidation) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t = hw::leaf_spine_topology(net, 8, 32, 1024, 4.0);
  ASSERT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.levels[1].name, "leaf");
  EXPECT_EQ(t.levels[1].fan_in, 4);
  EXPECT_EQ(t.levels[2].name, "spine");
  EXPECT_EQ(t.levels[2].fan_in, 32);
  EXPECT_EQ(t.levels[2].pod_size, 32);
  EXPECT_DOUBLE_EQ(t.levels[2].oversubscription, 4.0);
  EXPECT_EQ(t.total_capacity(), 1024);
  EXPECT_EQ(t.describe(), "nvs8 > leaf4 > spine32(os4)");

  EXPECT_THROW(hw::leaf_spine_topology(net, 8, 12, 1024, 1.0),
               std::invalid_argument);
  EXPECT_THROW(hw::leaf_spine_topology(net, 0, 8, 1024, 1.0),
               std::invalid_argument);
}

TEST(TopologyBuilders, RailOptimizedTradesLatencyForBandwidth) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t = hw::rail_optimized_topology(net, 8, 32, 1024);
  ASSERT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.levels[2].name, "spine-rail");
  EXPECT_DOUBLE_EQ(t.levels[2].latency.value(), 2.0 * net.ib_latency.value());
  EXPECT_DOUBLE_EQ(t.levels[2].oversubscription, 1.0);
}

TEST(TopologyBuilders, UnboundedTopLevel) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t = hw::two_level_topology(net, 8, 0);
  EXPECT_EQ(t.levels[1].fan_in, 0);
  EXPECT_EQ(t.total_capacity(), 0);  // unbounded
}

TEST(TopologyPlacement, MakePlacementFillsLevels) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t3 = hw::leaf_spine_topology(net, 8, 32, 1024, 1.0);

  const comm::TopoPlacement p = comm::make_placement(t3, {256, 8});
  EXPECT_EQ(p.size, 256);
  EXPECT_EQ(p.occupancy[0], 8);    // one full NVS domain
  EXPECT_EQ(p.occupancy[1], 32);   // one full leaf pod
  EXPECT_EQ(p.occupancy[2], 256);  // top level spans the group

  // Sparse placement: one member per domain still spans the whole group at
  // the top.
  const comm::TopoPlacement sparse = comm::make_placement(t3, {16, 1});
  EXPECT_EQ(sparse.occupancy[0], 1);
  EXPECT_EQ(sparse.occupancy[1], 4);
  EXPECT_EQ(sparse.occupancy[2], 16);

  // Group inside one fast domain.
  const comm::TopoPlacement inside = comm::make_placement(t3, {4, 4});
  EXPECT_EQ(inside.occupancy[0], 4);
  EXPECT_EQ(inside.occupancy[2], 4);
}

// ---------------------------------------------------------------------------
// Lint rules.
// ---------------------------------------------------------------------------

TEST(TopologyLint, CanonicalFabricsAreClean) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  EXPECT_TRUE(
      analysis::lint_topology(hw::two_level_topology(net, 8, 1024), 1024)
          .clean());
  EXPECT_TRUE(
      analysis::lint_topology(hw::leaf_spine_topology(net, 8, 32, 1024, 4.0),
                              1024)
          .clean());
  EXPECT_TRUE(analysis::lint_topology(hw::Topology{}, 1024).clean());
}

TEST(TopologyLint, FanInCoverage) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t = hw::two_level_topology(net, 8, 1024);  // capacity 1024
  const auto too_small = analysis::lint_topology(t, 2048);
  ASSERT_EQ(too_small.errors(), 1u);
  EXPECT_EQ(too_small.diagnostics[0].rule, "topology-fan-in");

  const auto oversized = analysis::lint_topology(t, 512);
  EXPECT_EQ(oversized.errors(), 0u);
  ASSERT_EQ(oversized.warnings(), 1u);
  EXPECT_EQ(oversized.diagnostics[0].rule, "topology-fan-in");

  // An unbounded top level covers any count.
  EXPECT_TRUE(
      analysis::lint_topology(hw::two_level_topology(net, 8, 0), 1 << 20)
          .clean());
}

TEST(TopologyLint, RejectsNonPositiveLevels) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  hw::Topology t = hw::two_level_topology(net, 8, 1024);
  t.levels[1].bandwidth = BytesPerSec(0);
  t.levels[1].rails = 0.0;
  t.levels[0].oversubscription = 0.5;
  const auto report = analysis::lint_topology(t, 1024);
  EXPECT_GE(report.errors(), 3u);
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.rule, "topology-positive");
  }
}

TEST(TopologyLint, WarnsOnNonMonotoneBandwidth) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  hw::Topology t = hw::two_level_topology(net, 8, 1024);
  t.levels[1].bandwidth = t.levels[0].bandwidth * 4.0;  // outer faster: typo
  const auto report = analysis::lint_topology(t, 1024);
  EXPECT_EQ(report.errors(), 0u);
  ASSERT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "topology-monotone-bw");
}

TEST(TopologyLint, PlacementRule) {
  EXPECT_TRUE(analysis::lint_placement({32, 8}).clean());
  const auto bad = analysis::lint_placement({12, 8});
  ASSERT_EQ(bad.errors(), 1u);
  EXPECT_EQ(bad.diagnostics[0].rule, "placement-valid");
  EXPECT_FALSE(analysis::lint_placement({2, 8}).clean());
  EXPECT_FALSE(analysis::lint_placement({8, 0}).clean());
}

// ---------------------------------------------------------------------------
// Hierarchical two-phase algorithm.
// ---------------------------------------------------------------------------

TEST(TopologyHierarchical, AllReduceIsTwoMirroredPhases) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t3 = hw::leaf_spine_topology(net, 8, 32, 1024, 1.0);
  const comm::TopoPlacement p = comm::make_placement(t3, {256, 8});
  const double ag =
      comm::hierarchical_time(t3, Collective::AllGather, Bytes(1e9), p).value();
  const double ar =
      comm::hierarchical_time(t3, Collective::AllReduce, Bytes(1e9), p).value();
  EXPECT_GT(ag, 0.0);
  EXPECT_EQ(ar, 2.0 * ag);
}

TEST(TopologyHierarchical, EnableFlagTakesTheMinimum) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  hw::Topology t3 = hw::leaf_spine_topology(net, 8, 32, 1024, 1.0);
  const comm::TopoPlacement p = comm::make_placement(t3, {256, 8});
  const double ring_only =
      comm::collective_time(t3, Collective::AllGather, Bytes(1e9), p).value();
  t3.enable_hierarchical = true;
  const double with_hier =
      comm::collective_time(t3, Collective::AllGather, Bytes(1e9), p).value();
  const double hier =
      comm::hierarchical_time(t3, Collective::AllGather, Bytes(1e9), p).value();
  EXPECT_LE(with_hier, ring_only);
  EXPECT_EQ(with_hier, std::min(ring_only, hier));
}

TEST(TopologyHierarchical, StaysAboveTheFloor) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  for (double oversub : {1.0, 4.0}) {
    const hw::Topology t3 = hw::leaf_spine_topology(net, 8, 32, 4096, oversub);
    for (std::int64_t size : {64, 256, 1024}) {
      const comm::TopoPlacement p = comm::make_placement(t3, {size, 8});
      for (double v : {1e6, 1e9}) {
        const double floor =
            comm::collective_time_floor(t3, size, Bytes(v)).value();
        for (Collective coll :
             {Collective::AllGather, Collective::ReduceScatter,
              Collective::AllReduce}) {
          EXPECT_LE(floor,
                    comm::hierarchical_time(t3, coll, Bytes(v), p).value())
              << "os=" << oversub << " size=" << size << " V=" << v;
          EXPECT_LE(floor, comm::collective_time(t3, coll, Bytes(v), p).value())
              << "os=" << oversub << " size=" << size << " V=" << v;
        }
      }
    }
  }
}

TEST(TopologyFloor, ConservativeForLlAndTree) {
  hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  net.enable_ll = true;
  net.enable_tree = true;
  const hw::Topology t = hw::two_level_topology(net, 8, 4096);
  for (std::int64_t size : {16, 256, 4096}) {
    for (double v : {1.0, 1e6, 1e9}) {
      const double floor =
          comm::collective_time_floor(t, size, Bytes(v)).value();
      for (Collective coll :
           {Collective::AllReduce, Collective::Broadcast, Collective::Reduce,
            Collective::AllToAll}) {
        const double actual =
            comm::collective_time(t, coll, Bytes(v), GroupPlacement{size, 8})
                .value();
        EXPECT_LE(floor, actual) << "coll=" << static_cast<int>(coll)
                                 << " size=" << size << " V=" << v;
      }
    }
  }
}

TEST(TopologyFloor, BestLinkBoundsPointToPoint) {
  // A point-to-point hop runs over one link of its innermost shared level,
  // so the volume over the fabric's fastest link bounds it on every fabric
  // shape and placement.
  for (hw::GpuGeneration gen :
       {hw::GpuGeneration::A100, hw::GpuGeneration::H200,
        hw::GpuGeneration::B200}) {
    const hw::NetworkSpec net = hw::network_preset(gen);
    for (const hw::Topology& t :
         {hw::two_level_topology(net, 4, 1024),
          hw::leaf_spine_topology(net, 8, 64, 1024, 4.0),
          hw::rail_optimized_topology(net, 8, 64, 1024)}) {
      const BytesPerSec best = comm::best_p2p_bandwidth(t);
      for (std::int64_t size : {2, 8, 64}) {
        for (std::int64_t nvs : {1, 2, 4}) {
          if (nvs > size) continue;
          for (double v : {1.0, 1e6, 1e8}) {
            const double price =
                comm::collective_time(t, Collective::PointToPoint, Bytes(v),
                                      GroupPlacement{size, nvs})
                    .value();
            EXPECT_LE((Bytes(v) / best).value(), price)
                << "gen=" << static_cast<int>(gen) << " size=" << size
                << " nvs=" << nvs << " V=" << v;
          }
        }
      }
    }
  }
}

TEST(TopologyFloor, CollectiveFloorIsNotAPointToPointFloor) {
  // The collective floor charges a group larger than one fast domain the
  // non-resident share of V through the domain's uplink; a single P2P hop
  // between two neighbours in that group never leaves the domain. On an
  // A100 nvs4 > IB fabric, g = 8 at nvs 2 and 1e8 B: floor 7.14e-4 s
  // against a P2P price of 4.79e-4 s — which is why the placement floor
  // bounds P2P rows with best_p2p_bandwidth instead.
  const hw::Topology t = hw::two_level_topology(
      hw::network_preset(hw::GpuGeneration::A100), 4, 1024);
  const double floor =
      comm::collective_time_floor(t, 8, Bytes(1e8)).value();
  const double price =
      comm::collective_time(t, Collective::PointToPoint, Bytes(1e8),
                            GroupPlacement{8, 2})
          .value();
  EXPECT_NEAR(floor, 7.14e-4, 1e-6);
  EXPECT_NEAR(price, 4.79e-4, 1e-6);
  EXPECT_GT(floor, price);
  EXPECT_LE((Bytes(1e8) / comm::best_p2p_bandwidth(t)).value(), price);
}

// ---------------------------------------------------------------------------
// DES cross-validation (Fig. A1 style) on a three-level fabric.
// ---------------------------------------------------------------------------

double pct_error(double analytic, double simulated) {
  return std::abs(analytic - simulated) / simulated * 100.0;
}

TEST(TopologySim, ThreeLevelRingWithinFigA1Tolerance) {
  // Fig. A1 validates the analytic model in the bandwidth-bound regime
  // (multi-GB tensors); at small volumes the packet-level DES charges ring
  // pipeline fill that the closed form deliberately omits.
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t3 = hw::leaf_spine_topology(net, 4, 16, 64, 1.0);
  const comm::TopoPlacement p = comm::make_placement(t3, {64, 4});
  for (Collective coll : {Collective::AllGather, Collective::AllReduce}) {
    const double analytic =
        comm::collective_time(t3, coll, Bytes(8e9), p).value();
    const double simulated =
        sim::simulate_collective(t3, coll, Bytes(8e9), p, 8).value();
    EXPECT_LT(pct_error(analytic, simulated), 20.0)
        << "coll=" << static_cast<int>(coll) << " analytic=" << analytic
        << " simulated=" << simulated;
  }
}

TEST(TopologySim, TwoLevelFabricMatchesNetworkSpecSim) {
  // The fabric-based DES on the canonical two-level topology must agree
  // with the legacy NetworkSpec-based DES (same rings, same rails).
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t2 = hw::two_level_topology(net, 8, 1024);
  const comm::TopoPlacement p = comm::make_placement(t2, {64, 8});
  for (Collective coll : {Collective::AllGather, Collective::AllReduce}) {
    EXPECT_DOUBLE_EQ(
        sim::simulate_collective(t2, coll, Bytes(1e8), p).value(),
        sim::simulate_collective(net, coll, Bytes(1e8), 64, 8).value());
  }
}

TEST(TopologySim, HierarchicalScheduleTracksAnalyticModel) {
  const hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::B200);
  const hw::Topology t3 = hw::leaf_spine_topology(net, 4, 16, 64, 1.0);
  const comm::TopoPlacement p = comm::make_placement(t3, {64, 4});
  for (Collective coll :
       {Collective::AllGather, Collective::ReduceScatter,
        Collective::AllReduce}) {
    const double analytic =
        comm::hierarchical_time(t3, coll, Bytes(1e9), p).value();
    const double simulated =
        sim::simulate_hierarchical(t3, coll, Bytes(1e9), p, 8).value();
    EXPECT_LT(pct_error(analytic, simulated), 20.0)
        << "coll=" << static_cast<int>(coll) << " analytic=" << analytic
        << " simulated=" << simulated;
  }
  EXPECT_THROW(sim::simulate_hierarchical(t3, Collective::Broadcast,
                                          Bytes(1e6), p),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// [topology] config sections.
// ---------------------------------------------------------------------------

io::ConfigSections parse(const std::string& text) {
  std::istringstream in(text);
  return io::parse_config(in);
}

TEST(TopologyConfig, ParsesThreeLevelSection) {
  const auto sections = parse(
      "[topology]\n"
      "levels = nvs, leaf, spine\n"
      "fan_in = 8, 4, 0\n"
      "latency_us = 2.5, 5, 5\n"
      "gbs = 900, 100, 100\n"
      "rails = 1, 4, 4\n"
      "pod_size = 0, 0, 256\n"
      "oversubscription = 1, 1, 4\n"
      "efficiency = 0.8\n"
      "enable_hierarchical = 1\n");
  const hw::Topology t = io::topology_from_section(sections.at("topology"));
  ASSERT_EQ(t.depth(), 3u);
  EXPECT_EQ(t.levels[0].name, "nvs");
  EXPECT_EQ(t.levels[0].fan_in, 8);
  EXPECT_DOUBLE_EQ(t.levels[0].bandwidth.value(), 900e9);
  EXPECT_NEAR(t.levels[0].latency.value(), 2.5e-6, 1e-18);
  EXPECT_EQ(t.levels[2].fan_in, 0);  // unbounded spine
  EXPECT_EQ(t.levels[2].pod_size, 256);
  EXPECT_DOUBLE_EQ(t.levels[2].oversubscription, 4.0);
  EXPECT_DOUBLE_EQ(t.levels[1].rails, 4.0);
  EXPECT_DOUBLE_EQ(t.efficiency, 0.8);
  EXPECT_TRUE(t.enable_hierarchical);
  EXPECT_FALSE(t.enable_tree);
}

TEST(TopologyConfig, RejectsMalformedSections) {
  // List length mismatch.
  EXPECT_THROW(io::topology_from_section(parse("[topology]\n"
                                               "levels = nvs, ib\n"
                                               "fan_in = 8\n"
                                               "gbs = 900, 100\n")
                                             .at("topology")),
               std::runtime_error);
  // Missing bandwidth.
  EXPECT_THROW(io::topology_from_section(
                   parse("[topology]\nlevels = nvs\nfan_in = 8\n")
                       .at("topology")),
               std::runtime_error);
  // Unknown key.
  EXPECT_THROW(io::topology_from_section(parse("[topology]\n"
                                               "levels = nvs\n"
                                               "gbs = 900\n"
                                               "bandwidth = 900\n")
                                             .at("topology")),
               std::runtime_error);
  // Non-positive values.
  EXPECT_THROW(io::topology_from_section(parse("[topology]\n"
                                               "levels = nvs\n"
                                               "gbs = 0\n")
                                             .at("topology")),
               std::runtime_error);
  EXPECT_THROW(io::topology_from_section(parse("[topology]\n"
                                               "levels = nvs\n"
                                               "gbs = 900\n"
                                               "oversubscription = 0.5\n")
                                             .at("topology")),
               std::runtime_error);
}

TEST(TopologyConfig, RoundTripsThroughSectionForm) {
  hw::NetworkSpec net = hw::network_preset(hw::GpuGeneration::H200);
  net.nics_per_gpu = 4.0;
  hw::Topology t = hw::leaf_spine_topology(net, 8, 32, 2048, 4.0);
  t.enable_hierarchical = true;
  const io::Section s = io::topology_to_section(t);
  const hw::Topology back = io::topology_from_section(s);
  ASSERT_EQ(back.depth(), t.depth());
  for (std::size_t i = 0; i < t.depth(); ++i) {
    EXPECT_EQ(back.levels[i].name, t.levels[i].name) << i;
    EXPECT_EQ(back.levels[i].fan_in, t.levels[i].fan_in) << i;
    EXPECT_NEAR(back.levels[i].latency.value(), t.levels[i].latency.value(),
                1e-12 * (t.levels[i].latency.value() + 1e-30))
        << i;
    EXPECT_DOUBLE_EQ(back.levels[i].bandwidth.value(),
                     t.levels[i].bandwidth.value())
        << i;
    EXPECT_DOUBLE_EQ(back.levels[i].rails, t.levels[i].rails) << i;
    EXPECT_EQ(back.levels[i].pod_size, t.levels[i].pod_size) << i;
    EXPECT_DOUBLE_EQ(back.levels[i].oversubscription,
                     t.levels[i].oversubscription)
        << i;
  }
  EXPECT_DOUBLE_EQ(back.efficiency, t.efficiency);
  EXPECT_EQ(back.enable_hierarchical, t.enable_hierarchical);
  EXPECT_EQ(back.enable_tree, t.enable_tree);
}

TEST(TopologyConfig, LoadAttachesFabricToSystem) {
  const std::string path = "tfpe_test_topology.tfpe";
  {
    std::ofstream out(path);
    out << "[system]\ngpu = b200\nn_gpus = 1024\nnvs_domain = 8\n\n"
        << "[topology]\nlevels = nvs, leaf, spine\nfan_in = 8, 4, 32\n"
        << "latency_us = 2.5, 5, 5\ngbs = 900, 100, 100\n";
  }
  const io::LoadedConfig loaded = io::load_config_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.system.has_value());
  ASSERT_TRUE(loaded.topology.has_value());
  ASSERT_FALSE(loaded.system->fabric.empty());
  EXPECT_EQ(loaded.system->fabric.depth(), 3u);
  EXPECT_EQ(loaded.system->resolved_fabric().describe(),
            "nvs8 > leaf4 > spine32");
}

// ---------------------------------------------------------------------------
// Search integration: lower bounds, placement enumeration, sweep axis.
// ---------------------------------------------------------------------------

TEST(TopologyBounds, TimeFloorStaysBelowEvaluationOnDeepFabrics) {
  const model::TransformerConfig mdl = model::gpt3_175b();
  hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, 256);
  sys.fabric = hw::leaf_spine_topology(sys.net, 8, 32, 256, 4.0);
  const std::int64_t batch = 256;

  std::vector<parallel::ParallelConfig> cfgs;
  for (auto [np, nd] : {std::pair<int, int>{4, 8}, {8, 4}, {2, 16}}) {
    parallel::ParallelConfig c;
    c.strategy = parallel::TpStrategy::TP1D;
    c.n1 = 8;
    c.np = np;
    c.nd = nd;
    c.microbatches = 8;
    c.nvs1 = 8;
    c.zero = parallel::ZeroStage::kWeights;
    cfgs.push_back(c);
  }
  const core::EvalOptions opts;
  for (const auto& cfg : cfgs) {
    const auto bounds = core::search_bounds(mdl, sys, cfg, batch, opts);
    const auto r = core::evaluate(mdl, sys, cfg, batch, opts);
    if (!r.feasible) continue;
    EXPECT_LE(bounds.time_floor, r.iteration()) << cfg.describe();
    EXPECT_LE(bounds.memory_floor, r.mem.total().value()) << cfg.describe();
  }
}

TEST(TopologyLint, LeafFanInMustEqualNvsDomain) {
  // The placement search spends nvs_domain; the fabric's collectives reject
  // a span past its leaf fan-in. A bounded leaf that disagrees is an error
  // either way: too small fails mid-search, too large goes unsearched.
  const auto loaded = [](const std::string& fan_in) {
    const auto sections = parse(
        "[system]\ngpu = b200\nnvs_domain = 8\nn_gpus = 64\n"
        "[topology]\nlevels = nvs, ib\nfan_in = " +
        fan_in + "\ngbs = 900, 50\n");
    hw::SystemConfig sys = io::system_from_section(sections.at("system"));
    sys.fabric = io::topology_from_section(sections.at("topology"));
    return analysis::lint_system(sys);
  };
  EXPECT_TRUE(loaded("8, 0").clean());
  EXPECT_TRUE(loaded("0, 0").clean());  // an unbounded leaf caps no span
  for (const std::string fan_in : {"4, 0", "16, 0"}) {
    const auto report = loaded(fan_in);
    ASSERT_EQ(report.errors(), 1u) << fan_in;
    EXPECT_EQ(report.diagnostics[0].rule, "topology-leaf-domain") << fan_in;
  }

  // The fabrics the sweep builds from nvs_domain: hardware_grid's leaf/spine
  // points and --ablate-topology's degenerate three-level preset.
  for (const hw::SystemConfig& sys : search::hardware_grid(
           {hw::GpuGeneration::B200, hw::GpuGeneration::A100}, {4, 8, 16, 64},
           1024, {1.0, 4.0}, 64)) {
    EXPECT_TRUE(analysis::lint_system(sys).clean()) << sys.describe();
    hw::SystemConfig degenerate = sys;
    degenerate.fabric = hw::leaf_spine_topology(sys.net, sys.nvs_domain,
                                                sys.nvs_domain, sys.n_gpus,
                                                1.0);
    EXPECT_TRUE(analysis::lint_system(degenerate).clean()) << sys.describe();
  }
}

TEST(TopologySweep, HardwareGridOversubscriptionAxis) {
  const auto grid = search::hardware_grid(
      {hw::GpuGeneration::B200, hw::GpuGeneration::H200}, {4, 8}, 256,
      {1.0, 4.0}, 32);
  ASSERT_EQ(grid.size(), 8u);
  // Oversubscription innermost: even entries keep the canonical two-level
  // fabric, odd entries attach a three-level leaf/spine.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(grid[i].fabric.empty()) << i;
    } else {
      ASSERT_EQ(grid[i].fabric.depth(), 3u) << i;
      EXPECT_DOUBLE_EQ(grid[i].fabric.levels[2].oversubscription, 4.0) << i;
      // Leaf pods are a multiple of the NVS domain.
      EXPECT_EQ(grid[i].fabric.levels[1].fan_in *
                    grid[i].fabric.levels[0].fan_in,
                32)
          << i;
    }
  }
}

TEST(TopologySweep, OversubscribedPointIsNeverFaster) {
  const model::TransformerConfig mdl = model::gpt3_175b();
  const auto grid = search::hardware_grid({hw::GpuGeneration::B200}, {8}, 256,
                                          {1.0, 8.0}, 32);
  search::SweepOptions opts;
  opts.search.global_batch = 256;
  opts.threads = 2;
  const auto swept = search::run_sweep(mdl, grid, opts);
  ASSERT_EQ(swept.best.size(), 2u);
  ASSERT_TRUE(swept.best[0].feasible) << swept.best[0].reason;
  ASSERT_TRUE(swept.best[1].feasible) << swept.best[1].reason;
  EXPECT_GE(swept.best[1].iteration(), swept.best[0].iteration());
}

}  // namespace
}  // namespace tfpe
