// Tests for the FPGA cost model: ordering properties the paper's Table 3
// rests on, plus arithmetic of the resource estimates.
#include <gtest/gtest.h>

#include "hw/resources.h"
#include "ml/classifier.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::hw {
namespace {

ml::ModelComplexity leaf(const char* kind, std::size_t comparators,
                         std::size_t multipliers, std::size_t tables,
                         std::size_t depth, std::size_t inputs) {
  ml::ModelComplexity mc;
  mc.kind = kind;
  mc.comparators = comparators;
  mc.multipliers = multipliers;
  mc.adders = comparators + multipliers;
  mc.table_entries = tables;
  mc.depth = depth;
  mc.inputs = inputs;
  return mc;
}

TEST(Resources, AreaCompositionIncludesDsps) {
  ResourceEstimate est;
  est.luts = 100;
  est.ffs = 50;
  est.dsps = 2;
  FabricParams fp;
  EXPECT_DOUBLE_EQ(est.area_lut_equiv(fp),
                   150.0 + 2.0 * fp.dsp_area_lut_equiv);
}

TEST(Resources, AreaPercentAgainstReference) {
  ResourceEstimate est;
  est.luts = 4500;
  ReferenceCore core;
  core.area_lut_equiv = 45000;
  EXPECT_DOUBLE_EQ(est.area_percent(core), 10.0);
}

TEST(Resources, LatencyNsAt100MHz) {
  ResourceEstimate est;
  est.latency_cycles = 34;
  EXPECT_DOUBLE_EQ(est.latency_ns(), 340.0);
}

TEST(Estimate, MlpDominatesTreeAndRules) {
  const auto mlp = estimate_hardware(leaf("mlp", 0, 50, 0, 8, 8));
  const auto tree = estimate_hardware(leaf("tree", 20, 0, 21, 6, 8));
  const auto rules = estimate_hardware(leaf("rules", 10, 0, 5, 4, 8));
  EXPECT_GT(mlp.area_lut_equiv(), tree.area_lut_equiv() * 2);
  EXPECT_GT(mlp.area_lut_equiv(), rules.area_lut_equiv() * 2);
  EXPECT_GT(mlp.latency_cycles, tree.latency_cycles);
  EXPECT_GT(mlp.latency_cycles, rules.latency_cycles);
}

TEST(Estimate, OneRStyleRuleIsOneCycleClass) {
  const auto oner = estimate_hardware(leaf("rules", 2, 0, 3, 1, 1));
  EXPECT_LE(oner.latency_cycles, 2.0);
}

TEST(Estimate, LinearLatencyScalesWithInputs) {
  const auto narrow = estimate_hardware(leaf("linear", 1, 2, 0, 3, 2));
  const auto wide = estimate_hardware(leaf("linear", 1, 8, 0, 5, 8));
  EXPECT_GT(wide.latency_cycles, narrow.latency_cycles);
}

TEST(Estimate, EnsembleLatencyGrowsWithMembers) {
  ml::ModelComplexity member = leaf("tree", 10, 0, 11, 4, 2);
  ml::ModelComplexity small;
  small.kind = "ensemble";
  small.children = {member, member};
  ml::ModelComplexity big = small;
  for (int i = 0; i < 8; ++i) big.children.push_back(member);

  const auto s = estimate_hardware(small);
  const auto b = estimate_hardware(big);
  EXPECT_GT(b.latency_cycles, s.latency_cycles * 3);
}

TEST(Estimate, EnsembleSharesTheDatapath) {
  // 10 identical members: the shared-engine area must be far below 10x a
  // single member (only parameter storage scales with member count).
  ml::ModelComplexity member = leaf("tree", 30, 0, 31, 6, 4);
  ml::ModelComplexity ens;
  ens.kind = "ensemble";
  for (int i = 0; i < 10; ++i) ens.children.push_back(member);

  const auto one = estimate_hardware(member);
  const auto ten = estimate_hardware(ens);
  EXPECT_LT(ten.area_lut_equiv(), 6.0 * one.area_lut_equiv());
  EXPECT_GT(ten.area_lut_equiv(), one.area_lut_equiv());
}

TEST(Estimate, EmptyEnsembleRejected) {
  ml::ModelComplexity ens;
  ens.kind = "ensemble";
  EXPECT_THROW(estimate_hardware(ens), PreconditionError);
}

TEST(Estimate, TrainedClassifierComplexityWorks) {
  const auto data = testutil::gaussian_blobs(80, 2, 0, 1.0, 30);
  auto clf = ml::make_classifier(ml::ClassifierKind::kJ48);
  clf->train(data);
  const auto est = estimate_hardware(ml::complexity(ml::extract_ir(*clf)));
  EXPECT_GT(est.area_lut_equiv(), 0.0);
  EXPECT_GT(est.latency_cycles, 0.0);
}

TEST(Estimate, BiggerTreeCostsMore) {
  const auto small = estimate_hardware(leaf("tree", 5, 0, 6, 3, 2));
  const auto large = estimate_hardware(leaf("tree", 200, 0, 201, 12, 2));
  EXPECT_GT(large.area_lut_equiv(), small.area_lut_equiv());
  EXPECT_GT(large.latency_cycles, small.latency_cycles);
}

}  // namespace
}  // namespace hmd::hw
