// Parameterized contract tests that every one of the eight general
// classifiers (and their ensemble wrappings) must satisfy, plus targeted
// behavioural tests on datasets with known structure.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "ml/classifier.h"
#include "ml/mlp.h"
#include "ml/metrics.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;
using testutil::train_accuracy;
using testutil::xor_data;

struct Case {
  ClassifierKind kind;
  EnsembleKind ensemble;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(classifier_kind_name(info.param.kind)) + "_" +
         std::string(ensemble_kind_name(info.param.ensemble));
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (ClassifierKind k : all_classifier_kinds())
    for (EnsembleKind e : all_ensemble_kinds()) cases.push_back({k, e});
  return cases;
}

class ClassifierContract : public testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<Classifier> make() const {
    return make_detector(GetParam().kind, GetParam().ensemble, /*seed=*/7);
  }
};

TEST_P(ClassifierContract, PredictBeforeTrainThrows) {
  const auto clf = make();
  const std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(clf->predict_proba(x), PreconditionError);
}

TEST_P(ClassifierContract, SeparatesGaussianBlobs) {
  const Dataset data = gaussian_blobs(150, 2, 1, 0.8, 42);
  auto clf = make();
  clf->train(data);
  EXPECT_GE(train_accuracy(*clf, data), 0.93)
      << clf->name() << " should separate well-separated blobs";
}

TEST_P(ClassifierContract, ProbabilitiesAreValid) {
  const Dataset data = gaussian_blobs(80, 2, 1, 1.2, 43);
  auto clf = make();
  clf->train(data);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = clf->predict_proba(data.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST_P(ClassifierContract, DeterministicGivenSeed) {
  const Dataset data = gaussian_blobs(60, 2, 1, 1.0, 44);
  auto a = make();
  auto b = make();
  a->train(data);
  b->train(data);
  for (std::size_t i = 0; i < data.num_rows(); i += 7)
    EXPECT_DOUBLE_EQ(a->predict_proba(data.row(i)),
                     b->predict_proba(data.row(i)));
}

TEST_P(ClassifierContract, HandlesSingleClassData) {
  Dataset data(std::vector<std::string>{"x"});
  for (int i = 0; i < 20; ++i)
    data.add_row({static_cast<double>(i)}, 1);
  auto clf = make();
  clf->train(data);
  EXPECT_EQ(clf->predict(data.row(0)), 1);
}

TEST_P(ClassifierContract, CloneUntrainedIsIndependent) {
  const Dataset data = gaussian_blobs(50, 1, 0, 1.0, 45);
  auto original = make();
  auto clone = original->clone_untrained();
  original->train(data);
  // The clone was made before training and must still require train().
  EXPECT_THROW(clone->predict_proba(data.row(0)), PreconditionError);
  clone->train(data);
  EXPECT_EQ(clone->name(), original->name());
}

TEST_P(ClassifierContract, ComplexityIsPopulated) {
  const Dataset data = gaussian_blobs(80, 2, 0, 1.0, 46);
  auto clf = make();
  clf->train(data);
  const ModelComplexity mc = complexity(extract_ir(*clf));
  EXPECT_FALSE(mc.kind.empty());
  EXPECT_GE(mc.depth, 1u);
  if (GetParam().ensemble != EnsembleKind::kGeneral) {
    EXPECT_FALSE(mc.children.empty());
  }
  const std::size_t ops = mc.comparators + mc.adders + mc.multipliers +
                          mc.table_entries + mc.children.size();
  EXPECT_GT(ops, 0u);
}

TEST_P(ClassifierContract, InstanceWeightsMatter) {
  // Overlapping blobs; weighting class 1 makes the detector favour it.
  Dataset data = gaussian_blobs(100, 1, 0, 2.5, 47);
  auto neutral = make();
  neutral->train(data);

  std::vector<double> w(data.num_rows(), 1.0);
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    if (data.label(i) == 1) w[i] = 25.0;
  Dataset skewed = data;
  skewed.set_weights(std::move(w));
  auto biased = make();
  biased->train(skewed);

  // Count positive predictions over a neutral probe grid.
  auto positives = [&](const Classifier& clf) {
    int n = 0;
    for (double x = -4.0; x <= 4.0; x += 0.25)
      n += clf.predict(std::vector<double>{x});
    return n;
  };
  EXPECT_GE(positives(*biased), positives(*neutral));
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, ClassifierContract,
                         testing::ValuesIn(all_cases()), case_name);

// -------------------------------------------------- per-classifier tests --

TEST(Factory, NamesMatchWekaSpelling) {
  EXPECT_EQ(make_classifier(ClassifierKind::kBayesNet)->name(), "BayesNet");
  EXPECT_EQ(make_classifier(ClassifierKind::kJ48)->name(), "J48");
  EXPECT_EQ(make_classifier(ClassifierKind::kJRip)->name(), "JRip");
  EXPECT_EQ(make_classifier(ClassifierKind::kMlp)->name(), "MLP");
  EXPECT_EQ(make_classifier(ClassifierKind::kOneR)->name(), "OneR");
  EXPECT_EQ(make_classifier(ClassifierKind::kRepTree)->name(), "REPTree");
  EXPECT_EQ(make_classifier(ClassifierKind::kSgd)->name(), "SGD");
  EXPECT_EQ(make_classifier(ClassifierKind::kSmo)->name(), "SMO");
}

TEST(Factory, DetectorNamesIncludeEnsemble) {
  EXPECT_EQ(
      make_detector(ClassifierKind::kJ48, EnsembleKind::kAdaBoost)->name(),
      "AdaBoost(J48)");
  EXPECT_EQ(
      make_detector(ClassifierKind::kSmo, EnsembleKind::kBagging)->name(),
      "Bagging(SMO)");
}

TEST(LinearModels, CannotSolveXor) {
  // XOR has no linear boundary; hinge-loss SGD stays near chance. (The
  // greedy trees also fail at the *root* of pure XOR — C4.5's documented
  // myopia, exercised in test_trees_rules.cpp.)
  const Dataset data = xor_data(80, 0.7, 50);
  auto sgd = make_classifier(ClassifierKind::kSgd);
  sgd->train(data);
  EXPECT_LT(train_accuracy(*sgd, data), 0.75);
}

TEST(Mlp, WideHiddenLayerSolvesXor) {
  const Dataset data = xor_data(80, 0.7, 50);
  Mlp mlp(/*hidden=*/8, 0.3, 0.2, /*epochs=*/600, /*seed=*/3);
  mlp.train(data);
  EXPECT_GT(train_accuracy(mlp, data), 0.9);
}

TEST(Trees, SolveNestedBandProblem) {
  // Class 1 iff |x| < 1: the root split *does* have gain here, and the
  // solution needs two stacked thresholds — trees get it, linear can't.
  Dataset data(std::vector<std::string>{"x", "noise"});
  Rng rng(51);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(-3.0, 3.0);
    data.add_row({x, rng.gaussian(0.0, 1.0)},
                 std::fabs(x) < 1.0 ? 1 : 0);
  }
  auto tree = make_classifier(ClassifierKind::kJ48);
  tree->train(data);
  EXPECT_GT(train_accuracy(*tree, data), 0.95);

  auto sgd = make_classifier(ClassifierKind::kSgd);
  sgd->train(data);
  EXPECT_LT(train_accuracy(*sgd, data), 0.8);
}

TEST(HardOutputModels, SmoAndSgdEmitHardPosteriors) {
  const Dataset data = gaussian_blobs(60, 2, 0, 1.0, 51);
  for (ClassifierKind kind : {ClassifierKind::kSmo, ClassifierKind::kSgd}) {
    auto clf = make_classifier(kind);
    clf->train(data);
    for (std::size_t i = 0; i < data.num_rows(); i += 5) {
      const double p = clf->predict_proba(data.row(i));
      EXPECT_TRUE(p == 0.0 || p == 1.0)
          << classifier_kind_name(kind) << " emitted graded score " << p;
    }
  }
}

TEST(GradedOutputModels, EnsemblesOfHardModelsAreGraded) {
  const Dataset data = gaussian_blobs(80, 2, 0, 2.0, 52);
  auto boosted =
      make_detector(ClassifierKind::kSmo, EnsembleKind::kAdaBoost, 7);
  boosted->train(data);
  bool saw_intermediate = false;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = boosted->predict_proba(data.row(i));
    if (p > 0.05 && p < 0.95) saw_intermediate = true;
  }
  EXPECT_TRUE(saw_intermediate)
      << "boosting hard models should produce graded votes";
}

}  // namespace
}  // namespace hmd::ml
