// Targeted tests for the tree learners (J48, REPTree) and rule learners
// (OneR, JRip): split selection, pruning machinery, model structure.
#include <gtest/gtest.h>

#include "ml/j48.h"
#include "ml/jrip.h"
#include "ml/oner.h"
#include "ml/reptree.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;
using testutil::train_accuracy;
using testutil::xor_data;

// ------------------------------------------------------------------- J48 --

TEST(J48, NormalQuantileKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.75), 0.674489750196, 1e-6);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540, 1e-6);
  EXPECT_NEAR(normal_quantile(0.025), -1.959963984540, 1e-6);
}

TEST(J48, AddErrsMatchesC45Behaviour) {
  // Zero observed errors still get charged a pessimistic estimate.
  EXPECT_GT(c45_added_errors(10, 0, 0.25), 0.0);
  // More data, same error rate -> relatively fewer added errors.
  const double small = c45_added_errors(10, 2, 0.25) / 10.0;
  const double large = c45_added_errors(1000, 200, 0.25) / 1000.0;
  EXPECT_GT(small, large);
  // Monotone in confidence: lower CF = more pessimism.
  EXPECT_GT(c45_added_errors(50, 5, 0.10), c45_added_errors(50, 5, 0.40));
}

TEST(J48, XorRootHasNoGainFaithfulC45Myopia) {
  // On symmetric XOR every single-feature split has ~zero information
  // gain, so greedy C4.5 (like WEKA's J48) refuses to split at the root.
  // This documents that our implementation reproduces the real C4.5
  // behaviour rather than patching it.
  const Dataset data = xor_data(100, 0.6, 1);
  J48 tree;
  tree.train(data);
  EXPECT_EQ(tree.depth(), 0u);
}

TEST(J48, SolvesBandProblemWithStackedThresholds) {
  // Class 1 iff x in (-1, 1): needs two thresholds on the same feature.
  Dataset data(std::vector<std::string>{"x"});
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    data.add_row({x}, std::fabs(x) < 1.0 ? 1 : 0);
  }
  J48 tree;
  tree.train(data);
  EXPECT_GE(train_accuracy(tree, data), 0.97);
  EXPECT_GE(tree.depth(), 2u);
}

TEST(J48, PruningShrinksTheTree) {
  // Noisy overlapping blobs: the unpruned tree memorises noise.
  const Dataset data = gaussian_blobs(250, 1, 1, 2.8, 2);
  J48 pruned(0.25, 2.0, /*prune=*/true);
  J48 unpruned(0.25, 2.0, /*prune=*/false);
  pruned.train(data);
  unpruned.train(data);
  EXPECT_LT(pruned.num_leaves(), unpruned.num_leaves());
}

TEST(J48, PureDataGivesSingleLeaf) {
  Dataset data(std::vector<std::string>{"x"});
  for (int i = 0; i < 30; ++i) data.add_row({static_cast<double>(i)}, 0);
  J48 tree;
  tree.train(data);
  EXPECT_EQ(tree.num_leaves(), 1u);
  EXPECT_EQ(tree.depth(), 0u);
}

TEST(J48, ComplexityCountsReachableNodesOnly) {
  const Dataset data = gaussian_blobs(200, 2, 0, 2.0, 3);
  J48 tree;
  tree.train(data);
  const ModelComplexity mc = complexity(extract_ir(tree));
  EXPECT_EQ(mc.kind, "tree");
  EXPECT_EQ(mc.comparators + mc.table_entries,
            mc.table_entries * 2 - 1);  // full binary tree: leaves-1 internal
  EXPECT_EQ(mc.table_entries, tree.num_leaves());
}

// --------------------------------------------------------------- REPTree --

TEST(RepTree, SolvesXor) {
  const Dataset data = xor_data(120, 0.6, 4);
  RepTree tree;
  tree.train(data);
  EXPECT_GE(train_accuracy(tree, data), 0.9);
}

TEST(RepTree, ReducedErrorPruningShrinksNoisyTree) {
  const Dataset data = gaussian_blobs(300, 1, 1, 2.8, 5);
  RepTree with_rep(2.0, /*num_folds=*/3, 0, 1);
  RepTree no_rep(2.0, /*num_folds=*/0, 0, 1);  // folds<2 disables pruning
  with_rep.train(data);
  no_rep.train(data);
  const auto pruned_nodes = complexity(extract_ir(with_rep));
  const auto raw_nodes = complexity(extract_ir(no_rep));
  EXPECT_LT(pruned_nodes.comparators, raw_nodes.comparators);
}

TEST(RepTree, MaxDepthIsHonoured) {
  const Dataset data = gaussian_blobs(200, 2, 0, 2.0, 6);
  RepTree shallow(2.0, 3, /*max_depth=*/2, 1);
  shallow.train(data);
  // depth counts +1 stage
  EXPECT_LE(complexity(extract_ir(shallow)).depth, 3u);
}

// ------------------------------------------------------------------ OneR --

TEST(OneR, PicksTheInformativeFeature) {
  // Feature 0 is informative, feature 1 is noise.
  const Dataset data = gaussian_blobs(150, 1, 1, 0.8, 7);
  OneR oner;
  oner.train(data);
  EXPECT_EQ(oner.chosen_feature(), 0u);
  EXPECT_GE(train_accuracy(oner, data), 0.9);
}

TEST(OneR, MinBucketWeightLimitsFragmentation) {
  const Dataset data = gaussian_blobs(200, 1, 0, 2.5, 8);
  OneR fine(1.0), coarse(30.0);
  fine.train(data);
  coarse.train(data);
  EXPECT_LE(coarse.num_buckets(), fine.num_buckets());
}

TEST(OneR, InsensitiveToFeatureRemovalWhenItsPickSurvives) {
  // The paper's observation: OneR keeps the same accuracy when reducing
  // features, as long as its one chosen counter is retained.
  const Dataset data = gaussian_blobs(150, 1, 3, 0.8, 9);
  OneR wide;
  wide.train(data);
  const Dataset narrow =
      data.select_features(std::vector<std::size_t>{wide.chosen_feature()});
  OneR one;
  one.train(narrow);
  EXPECT_NEAR(train_accuracy(wide, data), train_accuracy(one, narrow), 1e-9);
}

// ------------------------------------------------------------------ JRip --

TEST(JRip, LearnsARectangleRule) {
  // Class 1 iff x in [2,4] (y irrelevant): two conditions suffice.
  Dataset data(std::vector<std::string>{"x", "y"});
  Rng rng(10);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(0.0, 6.0);
    const double y = rng.uniform(0.0, 6.0);
    data.add_row({x, y}, (x >= 2.0 && x <= 4.0) ? 1 : 0);
  }
  JRip jrip;
  jrip.train(data);
  EXPECT_GE(train_accuracy(jrip, data), 0.95);
  EXPECT_GE(jrip.num_rules(), 1u);
  // Rules should be about x, not y.
  for (const auto& rule : jrip.rules())
    for (const auto& cond : rule.conditions) EXPECT_EQ(cond.feature, 0u);
}

TEST(JRip, TargetsTheMinorityClass) {
  Dataset data(std::vector<std::string>{"x"});
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const bool rare = rng.chance(0.2);
    data.add_row({rare ? rng.gaussian(3, 0.5) : rng.gaussian(-3, 0.5)},
                 rare ? 1 : 0);
  }
  JRip jrip;
  jrip.train(data);
  EXPECT_EQ(jrip.target_class(), 1);
}

TEST(JRip, ComplexityCountsConditions) {
  const Dataset data = gaussian_blobs(150, 2, 0, 1.0, 12);
  JRip jrip;
  jrip.train(data);
  const auto mc = complexity(extract_ir(jrip));
  EXPECT_EQ(mc.kind, "rules");
  std::size_t conds = 0;
  for (const auto& rule : jrip.rules()) conds += rule.conditions.size();
  EXPECT_EQ(mc.comparators, conds);
  EXPECT_EQ(mc.table_entries, jrip.num_rules() + 1);
}

}  // namespace
}  // namespace hmd::ml
