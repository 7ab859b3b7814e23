// Tests for the family classifier extension.
#include <gtest/gtest.h>

#include "core/family.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd {
namespace {

/// Three separable malware families along feature 0:
/// benign ~0, famA ~5, famB ~10.
ml::Dataset family_data(std::vector<std::string>& families,
                        std::uint64_t seed) {
  ml::Dataset d(std::vector<std::string>{"x", "noise"});
  families.clear();
  Rng rng(seed);
  for (int i = 0; i < 120; ++i) {
    const int kind = i % 3;
    const double centre = kind == 0 ? 0.0 : kind == 1 ? 5.0 : 10.0;
    d.add_row({rng.gaussian(centre, 0.7), rng.gaussian(0.0, 1.0)},
              kind == 0 ? 0 : 1, 1.0, /*group=*/i / 6);
    families.push_back(kind == 0 ? "" : kind == 1 ? "famA" : "famB");
  }
  return d;
}

TEST(Family, LearnsToNameSeparableFamilies) {
  std::vector<std::string> families;
  const ml::Dataset train = family_data(families, 3);
  core::FamilyClassifier clf;
  clf.train(train, families);
  ASSERT_EQ(clf.families().size(), 2u);

  std::vector<std::string> test_families;
  const ml::Dataset test = family_data(test_families, 4);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.num_rows(); ++i)
    if (clf.classify(test.row(i)).family == test_families[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(test.num_rows()),
            0.9);
}

TEST(Family, BenignWinsWhenNothingFires) {
  std::vector<std::string> families;
  const ml::Dataset train = family_data(families, 5);
  core::FamilyClassifier clf;
  clf.train(train, families);
  // A strongly benign point.
  const auto pred = clf.classify(std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(pred.family.empty());
}

TEST(Family, MismatchedLabelsRejected) {
  ml::Dataset d(std::vector<std::string>{"x"});
  d.add_row({1.0}, 1);  // malware...
  core::FamilyClassifier clf;
  // ...but an empty family string: inconsistent.
  EXPECT_THROW(clf.train(d, {""}), PreconditionError);
}

TEST(Family, ClassifyBeforeTrainRejected) {
  core::FamilyClassifier clf;
  EXPECT_THROW(clf.classify(std::vector<double>{1.0}), PreconditionError);
}

TEST(Family, ConfusionCountsEveryRowOnce) {
  std::vector<std::string> families;
  const ml::Dataset train = family_data(families, 6);
  core::FamilyClassifier clf;
  clf.train(train, families);
  const auto confusion = core::evaluate_families(clf, train, families);
  std::size_t total = 0;
  for (const auto& [truth, row] : confusion)
    for (const auto& [pred, n] : row) total += n;
  EXPECT_EQ(total, train.num_rows());
}

}  // namespace
}  // namespace hmd
