// Cross-layer consistency passes: mutation tests proving every BATCH / SYS
// / PLACE / SWEEP rule fires on exactly the corruption it guards against,
// and stays silent on clean artifacts; plus the cache-key soundness probes.
#include "analysis/consistency.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "comm/collective_algorithm.hpp"
#include "core/batched_signature.hpp"
#include "core/cost_signature.hpp"
#include "hw/system.hpp"
#include "model/transformer.hpp"
#include "search/search_cache.hpp"
#include "search/sweep_lint.hpp"

namespace tfpe {
namespace {

using analysis::LintReport;
using analysis::RuleId;
using analysis::Severity;

parallel::ParallelConfig summa_cfg() {
  parallel::ParallelConfig cfg;
  cfg.strategy = parallel::TpStrategy::Summa2D;
  cfg.n1 = 4;
  cfg.n2 = 4;
  cfg.nb = 4;
  return cfg;
}

struct Compiled {
  model::TransformerConfig mdl = model::gpt3_1t();
  parallel::ParallelConfig cfg = summa_cfg();
  core::CostSignature sig;
  core::BatchedSignature bat;

  Compiled() {
    sig = core::compile_signature(mdl, cfg, /*global_batch=*/2);
    bat = core::lower_batched(sig);
  }
};

/// Every diagnostic in `report` has rule `id`, and at least one fired.
void expect_only(const LintReport& report, RuleId id, const char* label) {
  EXPECT_FALSE(report.clean()) << label << ": corruption went undetected";
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.id, id) << label << " also fired " << d.code() << ": "
                        << d.message;
  }
}

// ------------------------------------------------------------ TFPE-BATCH

TEST(LintBatched, CleanLoweringFiresNothing) {
  const Compiled c;
  EXPECT_TRUE(analysis::lint_batched(c.sig, c.bat).clean());
}

TEST(LintBatched, DroppedArraySlotFiresBatchedShape) {
  Compiled c;
  c.bat.fwd_flops.pop_back();
  expect_only(analysis::lint_batched(c.sig, c.bat), RuleId::kBatchedShape,
              "pop fwd_flops");
}

TEST(LintBatched, CorruptedOperandFiresBatchedShape) {
  Compiled c;
  ASSERT_FALSE(c.bat.bwd_bytes.empty());
  c.bat.bwd_bytes[0] = c.bat.bwd_bytes[0] + Bytes(1.0);
  expect_only(analysis::lint_batched(c.sig, c.bat), RuleId::kBatchedShape,
              "bwd_bytes[0] += 1");
}

TEST(LintBatched, ScaledPanelVolumeFiresBatchedPanelScale) {
  Compiled c;
  // Pick a request that is the sole member of its pricing row, so the
  // corruption cannot also desynchronize a row-mate from its representative
  // (which would correctly fire batched-price-row as well).
  std::vector<int> members(c.bat.price_rep.size(), 0);
  for (std::uint32_t row : c.bat.comm_price_row) ++members[row];
  std::size_t victim = c.bat.comm_price_row.size();
  for (std::size_t r = 0; r < c.bat.comm_price_row.size(); ++r) {
    if (members[c.bat.comm_price_row[r]] == 1) {
      victim = r;
      break;
    }
  }
  ASSERT_LT(victim, c.bat.comm_price_row.size())
      << "fixture has no singleton pricing row";
  c.bat.comm_panel_bytes[victim] = c.bat.comm_panel_bytes[victim] * 2.0;
  expect_only(analysis::lint_batched(c.sig, c.bat),
              RuleId::kBatchedPanelScale, "comm_panel_bytes[victim] *= 2");
}

TEST(LintBatched, RemappedRequestFiresBatchedPriceRow) {
  Compiled c;
  ASSERT_GE(c.bat.price_rep.size(), 2u) << "fixture has a single pricing row";
  // Remap request price_rep[0] (row 0's representative) onto row 1: the
  // representative no longer maps back to its own row, and the request's
  // triple disagrees with row 1's representative.
  c.bat.comm_price_row[c.bat.price_rep[0]] = 1;
  expect_only(analysis::lint_batched(c.sig, c.bat), RuleId::kBatchedPriceRow,
              "comm_price_row[rep0] = 1");
}

TEST(LintBatched, ClearedMaskBitFiresBatchedGroupMask) {
  Compiled c;
  ASSERT_NE(c.bat.comm_groups_mask, 0);
  // Clear the lowest set bit: that group still appears in the pool.
  c.bat.comm_groups_mask &= static_cast<std::uint8_t>(
      c.bat.comm_groups_mask - 1);
  expect_only(analysis::lint_batched(c.sig, c.bat), RuleId::kBatchedGroupMask,
              "clear mask bit");
}

TEST(LintBatched, ExtraSummaOpFiresBatchedSummaOps) {
  Compiled c;
  ASSERT_FALSE(c.bat.summa_ops.empty()) << "SUMMA fixture has no panel ops";
  c.bat.summa_ops.push_back(c.bat.summa_ops.back());
  expect_only(analysis::lint_batched(c.sig, c.bat), RuleId::kBatchedSummaOps,
              "duplicate summa op");
}

TEST(LintBatched, AssertHookThrowsOnCorruptionOnly) {
  Compiled c;
  EXPECT_NO_THROW(analysis::assert_batched_invariants(c.sig, c.bat));
  c.bat.panels.back() += 1;
  EXPECT_THROW(analysis::assert_batched_invariants(c.sig, c.bat),
               std::logic_error);
}

// ------------------------------------------------- TFPE-BATCH-006 scratch

struct TimedBatch : Compiled {
  hw::SystemConfig sys = hw::make_system(hw::GpuGeneration::B200, 8, 16);
  core::BatchScratch scratch;
  std::vector<std::array<std::int64_t, 4>> placements = {
      {1, 1, 1, 1}, {2, 2, 1, 1}, {4, 4, 1, 1}};

  TimedBatch() {
    const core::SystemTiming base = core::bind_system(sig, sys);
    std::vector<core::PlacementTiming> out;
    core::time_placements_batch(sig, bat, base, sys, cfg, placements, {}, out,
                                &scratch);
  }
};

TEST(LintBatchScratch, PopulatedScratchIsClean) {
  const TimedBatch t;
  EXPECT_TRUE(
      analysis::lint_batch_scratch(t.bat, t.scratch, t.placements.size())
          .clean());
}

TEST(LintBatchScratch, BrokenPrefixSumFiresBatchedScratchShape) {
  TimedBatch t;
  ASSERT_GE(t.scratch.row_offset.size(), 2u);
  t.scratch.row_offset[1] += 1;
  expect_only(
      analysis::lint_batch_scratch(t.bat, t.scratch, t.placements.size()),
      RuleId::kBatchedScratchShape, "row_offset[1] += 1");
}

TEST(LintBatchScratch, TruncatedColumnMapFiresBatchedScratchShape) {
  TimedBatch t;
  ASSERT_FALSE(t.scratch.nvs_column[0].empty());
  t.scratch.nvs_column[0].pop_back();
  expect_only(
      analysis::lint_batch_scratch(t.bat, t.scratch, t.placements.size()),
      RuleId::kBatchedScratchShape, "pop nvs_column[0]");
}

// -------------------------------------------------------------- TFPE-SYS

TEST(LintSystem, CanonicalSystemIsClean) {
  EXPECT_TRUE(
      analysis::lint_system(hw::make_system(hw::GpuGeneration::B200, 8, 64))
          .clean());
}

TEST(LintSystem, ZeroTensorRateFiresSystemCompute) {
  auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  sys.gpu.tensor_flops = FlopsPerSec(0);
  expect_only(analysis::lint_system(sys), RuleId::kSystemCompute,
              "tensor_flops = 0");
}

TEST(LintSystem, EfficiencyAboveOneFiresSystemNetwork) {
  auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  sys.net.efficiency = 1.5;
  expect_only(analysis::lint_system(sys), RuleId::kSystemNetwork,
              "efficiency = 1.5");
}

TEST(LintSystem, DeadHostLinkFiresSystemDomain) {
  auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  sys.host_bandwidth = BytesPerSec(0);
  expect_only(analysis::lint_system(sys), RuleId::kSystemDomain,
              "host_bandwidth = 0");
}

TEST(LintSystem, NonDividingDomainFiresSystemDomain) {
  auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  sys.nvs_domain = 3;
  // The resolved fabric inherits the bad domain, so the merged topology
  // lint may add its own (correct) findings; the domain rule must be among
  // them.
  const LintReport report = analysis::lint_system(sys);
  bool fired = false;
  for (const auto& d : report.diagnostics) {
    fired |= d.id == RuleId::kSystemDomain;
  }
  EXPECT_TRUE(fired) << report.summary();
}

TEST(LintSystem, StaticResidencyOverflowFiresSystemHbmFloor) {
  const Compiled c;
  // gpt3-1t on 16 GPUs: the static residency alone is hundreds of GB per
  // GPU — far over any real HBM, detectable before any bind.
  auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 16);
  expect_only(analysis::lint_system(sys, c.sig), RuleId::kSystemHbmFloor,
              "1T params on 16 GPUs");
  // With enough (hypothetical) capacity the same signature is clean.
  sys.gpu.hbm_capacity = Bytes(1e15);
  EXPECT_TRUE(analysis::lint_system(sys, c.sig).clean());
}

// ------------------------------------------------------------ TFPE-PLACE

TEST(LintPlacement, LeafFanInBoundsNvs) {
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  const hw::Topology fab = sys.resolved_fabric();
  ASSERT_EQ(fab.leaf_fan_in(), 8);
  EXPECT_TRUE(analysis::lint_placement(fab, {16, 8}).clean());
  const LintReport report = analysis::lint_placement(fab, {16, 16});
  expect_only(report, RuleId::kPlacementLeafFanIn, "nvs 16 on leaf 8");
}

TEST(LintPlacement, CommLayerRejectsOverfilledLeaf) {
  const auto sys = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  const hw::Topology fab = sys.resolved_fabric();
  // Valid divisor, but the fast domain cannot realize it: the validating
  // adapter must reject, exactly like the analysis rule.
  EXPECT_TRUE(comm::invalid_placement_reason(fab, {16, 16}).has_value());
  EXPECT_FALSE(comm::invalid_placement_reason(fab, {16, 8}).has_value());
  EXPECT_THROW(
      comm::collective_time(fab, ops::Collective::AllReduce, Bytes(1e6),
                            comm::GroupPlacement{16, 16}),
      std::invalid_argument);
}

// ------------------------------------------------------------ TFPE-SWEEP

TEST(LintSweepPlan, CleanPlanFiresNothing) {
  const std::vector<hw::SystemConfig> points = {
      hw::make_system(hw::GpuGeneration::B200, 8, 64)};
  EXPECT_TRUE(analysis::lint_system(points[0]).clean());
  EXPECT_TRUE(search::lint_sweep_plan(points).clean());
}

// ------------------------------------------------------- cache-key probes
//
// The engines key compiled artifacts on SignatureKey (whole signature) and
// LayerKey (per-layer block). A sound key ignores placement (nvs1, nvs2,
// nvsp, nvsd) and interleave, which enter only at timing, and separates
// every field its artifact depends on: a key that collapses two such
// configs would serve one's artifact for the other.

using SignatureKeyFn =
    std::function<search::SignatureKey(const parallel::ParallelConfig&)>;
using LayerKeyFn = std::function<search::LayerKey(
    const model::TransformerConfig&, const parallel::ParallelConfig&,
    std::int64_t)>;
using Mutation = std::pair<const char*,
                           std::function<void(parallel::ParallelConfig&)>>;

/// Every soundness violation of the two extractors, one line each; empty
/// when both are sound. The probe config has every dim > 1 per strategy,
/// so a key that ignores a dim is guaranteed to collapse its mutation.
std::vector<std::string> cache_key_violations(const SignatureKeyFn& sig_key,
                                              const LayerKeyFn& lay_key) {
  const std::vector<Mutation> timing_only = {
      {"nvs1", [](auto& c) { c.nvs1 = 2; }},
      {"nvs2", [](auto& c) { c.nvs2 = 2; }},
      {"nvsp", [](auto& c) { c.nvsp = 2; }},
      {"nvsd", [](auto& c) { c.nvsd = 2; }},
      {"interleave", [](auto& c) { c.interleave = 2; }}};
  // np and the ZeRO stage shape the per-candidate tail, not the layer.
  const std::vector<Mutation> layer_fields = {
      {"n1", [](auto& c) { c.n1 *= 2; }},
      {"nd", [](auto& c) { c.nd *= 2; }},
      {"microbatches", [](auto& c) { c.microbatches *= 2; }},
      {"ring_attention", [](auto& c) { c.ring_attention = !c.ring_attention; }}};
  const std::vector<Mutation> tail_fields = {
      {"np", [](auto& c) { c.np *= 2; }},
      {"zero stage", [](auto& c) { c.zero = parallel::ZeroStage::kWeights; }}};

  const model::TransformerConfig mdl = model::gpt3_1t();
  std::vector<std::string> out;
  for (const parallel::TpStrategy strategy :
       {parallel::TpStrategy::TP1D, parallel::TpStrategy::TP2D,
        parallel::TpStrategy::Summa2D}) {
    parallel::ParallelConfig base;
    base.strategy = strategy;
    base.n1 = 2;
    base.n2 = strategy == parallel::TpStrategy::TP1D ? 1 : 2;
    base.np = 2;
    base.nd = 2;
    base.microbatches = 2;
    base.nb = strategy == parallel::TpStrategy::Summa2D ? 2 : 1;
    const std::int64_t batch = base.nd * base.microbatches * 2;
    const std::string where = parallel::strategy_key(strategy) + ": ";
    // A key must stay equal under `invariant` mutations and change under
    // the others.
    const auto check = [&](const std::string& key_name, const auto& key,
                           const std::vector<Mutation>& mutations,
                           bool invariant) {
      for (const auto& [field, mutate] : mutations) {
        parallel::ParallelConfig m = base;
        mutate(m);
        if ((key(m) == key(base)) != invariant) {
          out.push_back(where + key_name +
                        (invariant ? " depends on " : " ignores ") + field);
        }
      }
    };
    const auto lay = [&](const parallel::ParallelConfig& c) {
      return lay_key(mdl, c, batch);
    };
    check("SignatureKey", sig_key, timing_only, true);
    check("SignatureKey", sig_key, layer_fields, false);
    check("SignatureKey", sig_key, tail_fields, false);
    check("LayerKey", lay, timing_only, true);
    check("LayerKey", lay, layer_fields, false);
  }
  return out;
}

TEST(CacheKeyProbe, ProductionKeysAreSound) {
  const auto violations =
      cache_key_violations(search::signature_key, search::layer_key);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(CacheKeyProbe, PlacementDependentKeyFires) {
  // A signature key that leaks nvs1 is not placement-invariant: the sweep
  // would compile one signature per placement and the cache would thrash —
  // or worse, serve stale artifacts. The probe must catch it.
  const auto violations = cache_key_violations(
      [](const parallel::ParallelConfig& cfg) {
        search::SignatureKey key = search::signature_key(cfg);
        key.m = cfg.nvs1;  // leak a placement field into the key
        return key;
      },
      search::layer_key);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front(), "1d: SignatureKey depends on nvs1");
}

TEST(CacheKeyProbe, CollapsingKeyFires) {
  // A key that ignores n1 collapses configs whose compiled artifacts
  // differ — one config's artifact would be served for the other.
  const auto constant_signature = cache_key_violations(
      [](const parallel::ParallelConfig&) { return search::SignatureKey{}; },
      search::layer_key);
  ASSERT_FALSE(constant_signature.empty());
  EXPECT_EQ(constant_signature.front(), "1d: SignatureKey ignores n1");
  const auto constant_layer = cache_key_violations(
      search::signature_key,
      [](const model::TransformerConfig&, const parallel::ParallelConfig&,
         std::int64_t) { return search::LayerKey{}; });
  ASSERT_FALSE(constant_layer.empty());
  EXPECT_EQ(constant_layer.front(), "1d: LayerKey ignores n1");
}

TEST(LintSweepPlan, RooflineDriftWithinChainWarnsSweepWarmChain) {
  auto a = hw::make_system(hw::GpuGeneration::B200, 8, 64);
  auto b = a;
  b.gpu.hbm_bandwidth = b.gpu.hbm_bandwidth * 2.0;  // same name, same n_gpus
  const LintReport report = search::lint_sweep_plan({a, b});
  expect_only(report, RuleId::kSweepWarmChain, "hbm drift in chain");
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.severity, Severity::kWarning) << d.message;
  }
  // Different GPU counts start different chains: no warning.
  auto c = a;
  c.n_gpus = 128;
  EXPECT_TRUE(search::lint_sweep_plan({a, c}).clean());
}

}  // namespace
}  // namespace tfpe
