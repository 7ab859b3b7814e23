// Tests for the ensemble meta-learners: AdaBoost.M1 and Bagging.
#include <gtest/gtest.h>

#include "ml/adaboost.h"
#include "ml/bagging.h"
#include "ml/metrics.h"
#include "ml/oner.h"
#include "ml/reptree.h"
#include "ml/sgd.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;
using testutil::train_accuracy;
using testutil::xor_data;

TEST(AdaBoost, RequiresPrototype) {
  EXPECT_THROW(AdaBoostM1(nullptr, 10), PreconditionError);
}

TEST(AdaBoost, BoostsStumpsOnADiagonalBoundary) {
  // Class = sign(x + y): one axis-aligned stump caps near 75-80%; a boosted
  // committee of stumps approximates the diagonal. (On symmetric XOR even
  // boosting axis-aligned stumps provably fails — not a useful test.)
  Dataset data(std::vector<std::string>{"x", "y"});
  Rng rng(20);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-2.0, 2.0);
    const double y = rng.uniform(-2.0, 2.0);
    data.add_row({x, y}, x + y > 0.0 ? 1 : 0);
  }
  OneR alone;
  alone.train(data);
  const double alone_acc = train_accuracy(alone, data);
  EXPECT_LT(alone_acc, 0.85);

  AdaBoostM1 boosted(std::make_unique<OneR>(), /*iterations=*/30, 7);
  boosted.train(data);
  EXPECT_GT(train_accuracy(boosted, data), alone_acc + 0.05);
}

TEST(AdaBoost, StopsEarlyOnPerfectBaseLearner) {
  const Dataset data = gaussian_blobs(100, 1, 0, 0.3, 21);  // trivially split
  AdaBoostM1 boosted(std::make_unique<RepTree>(), 10, 7,
                     /*resample=*/false);
  boosted.train(data);
  EXPECT_LT(boosted.num_members(), 10u);
}

TEST(AdaBoost, AlphasArePositive) {
  const Dataset data = gaussian_blobs(120, 2, 0, 2.0, 22);
  AdaBoostM1 boosted(std::make_unique<OneR>(), 10, 7);
  boosted.train(data);
  for (std::size_t i = 0; i < boosted.num_members(); ++i)
    EXPECT_GT(boosted.member_alpha(i), 0.0);
}

TEST(AdaBoost, GradedVotesFromHardMembers) {
  const Dataset data = gaussian_blobs(120, 2, 0, 2.2, 23);
  AdaBoostM1 boosted(std::make_unique<Sgd>(), 10, 7);
  boosted.train(data);
  int distinct = 0;
  double last = -1.0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = boosted.predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if (p != last) ++distinct;
    last = p;
  }
  EXPECT_GT(distinct, 2);
}

TEST(AdaBoost, ComplexityAggregatesMembers) {
  const Dataset data = gaussian_blobs(100, 1, 0, 1.8, 24);
  AdaBoostM1 boosted(std::make_unique<OneR>(), 10, 7);
  boosted.train(data);
  const auto mc = complexity(extract_ir(boosted));
  EXPECT_EQ(mc.kind, "ensemble");
  EXPECT_EQ(mc.children.size(), boosted.num_members());
}

TEST(Bagging, RequiresPrototypeAndBags) {
  EXPECT_THROW(Bagging(nullptr, 10), PreconditionError);
  EXPECT_THROW(Bagging(std::make_unique<OneR>(), 0), PreconditionError);
}

TEST(Bagging, AveragesProbabilities) {
  const Dataset data = gaussian_blobs(120, 2, 0, 2.0, 25);
  Bagging bag(std::make_unique<RepTree>(), 10, 7);
  bag.train(data);
  // Averaged tree probabilities should be graded, not just {0, 1}.
  bool graded = false;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = bag.predict_proba(data.row(i));
    if (p > 0.2 && p < 0.8) graded = true;
  }
  EXPECT_TRUE(graded);
}

TEST(Bagging, ImprovesAucOfUnstableBase) {
  // On noisy data, bagging a high-variance tree improves ranking quality —
  // the mechanism behind the paper's Bagging rows in Table 2.
  const Dataset train = gaussian_blobs(150, 2, 2, 2.6, 26);
  const Dataset test = gaussian_blobs(150, 2, 2, 2.6, 27);

  RepTree tree;
  tree.train(train);
  const double tree_auc = evaluate_detector(tree, test).auc;

  Bagging bag(std::make_unique<RepTree>(), 10, 7);
  bag.train(train);
  const double bag_auc = evaluate_detector(bag, test).auc;
  EXPECT_GT(bag_auc, tree_auc - 0.02);  // never materially worse
}

TEST(Bagging, MembersDiffer) {
  const Dataset data = gaussian_blobs(100, 1, 0, 2.0, 28);
  Bagging bag(std::make_unique<RepTree>(), 5, 7);
  bag.train(data);
  // At least two members disagree somewhere (they saw different bootstraps).
  bool disagreement = false;
  for (std::size_t i = 0; i < data.num_rows() && !disagreement; ++i) {
    const int first = bag.member(0).predict(data.row(i));
    for (std::size_t m = 1; m < bag.num_members(); ++m)
      if (bag.member(m).predict(data.row(i)) != first) disagreement = true;
  }
  EXPECT_TRUE(disagreement);
}

TEST(Bagging, DeterministicGivenSeed) {
  const Dataset data = gaussian_blobs(80, 2, 0, 1.6, 29);
  Bagging a(std::make_unique<RepTree>(), 5, 7);
  Bagging b(std::make_unique<RepTree>(), 5, 7);
  a.train(data);
  b.train(data);
  for (std::size_t i = 0; i < data.num_rows(); i += 9)
    EXPECT_DOUBLE_EQ(a.predict_proba(data.row(i)),
                     b.predict_proba(data.row(i)));
}

}  // namespace
}  // namespace hmd::ml
