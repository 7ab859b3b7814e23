// Tests for the extension modules: Platt calibration, group-aware
// cross-validation, RandomForest, mimicry blending, and PMU counter
// saturation.
#include <gtest/gtest.h>

#include <cmath>

#include "hpc/pmu.h"
#include "ml/calibration.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/smo.h"
#include "sim/workloads.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd {
namespace {

using ml::Dataset;
using testutil::gaussian_blobs;
using testutil::train_accuracy;
using testutil::xor_data;

// ----------------------------------------------------------- calibration --

TEST(Platt, FitSigmoidRecoversSeparation) {
  // Scores: negatives around -1, positives around +1.
  std::vector<double> scores;
  std::vector<int> labels;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    scores.push_back(rng.gaussian(-1.0, 0.4));
    labels.push_back(0);
    scores.push_back(rng.gaussian(1.0, 0.4));
    labels.push_back(1);
  }
  double a = 0.0, b = 0.0;
  ml::PlattScaling::fit_sigmoid(scores, labels, a, b);
  auto prob = [&](double s) { return 1.0 / (1.0 + std::exp(a * s + b)); };
  EXPECT_GT(prob(1.5), 0.9);
  EXPECT_LT(prob(-1.5), 0.1);
  EXPECT_NEAR(prob(0.0), 0.5, 0.15);
}

TEST(Platt, CalibratedSmoHasGradedScoresAndBetterAuc) {
  const Dataset train = gaussian_blobs(150, 2, 1, 2.4, 2);
  const Dataset test = gaussian_blobs(150, 2, 1, 2.4, 3);

  ml::Smo raw;
  raw.train(train);
  const double raw_auc = ml::evaluate_detector(raw, test).auc;

  ml::PlattScaling calibrated(std::make_unique<ml::Smo>());
  calibrated.train(train);
  bool graded = false;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    const double p = calibrated.predict_proba(test.row(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    if (p > 0.05 && p < 0.95) graded = true;
  }
  EXPECT_TRUE(graded);
  // A hard scorer's AUC is capped at (1+t-f)/2; calibration can only tie
  // it (the wrapped SMO is still hard) — check we did not *lose* quality.
  const double cal_auc = ml::evaluate_detector(calibrated, test).auc;
  EXPECT_GT(cal_auc, raw_auc - 0.1);
}

TEST(Platt, NameAndClone) {
  ml::PlattScaling p(std::make_unique<ml::Smo>());
  EXPECT_EQ(p.name(), "Platt(SMO)");
  auto clone = p.clone_untrained();
  EXPECT_EQ(clone->name(), "Platt(SMO)");
}

TEST(Platt, RejectsBadConfig) {
  EXPECT_THROW(ml::PlattScaling(nullptr), PreconditionError);
  EXPECT_THROW(ml::PlattScaling(std::make_unique<ml::Smo>(), 0.0),
               PreconditionError);
  EXPECT_THROW(ml::PlattScaling(std::make_unique<ml::Smo>(), 1.0),
               PreconditionError);
}

// ------------------------------------------------------- cross-validation --

TEST(CrossValidation, FoldsPartitionGroups) {
  const Dataset data = gaussian_blobs(200, 2, 0, 1.0, 4);
  Rng rng(5);
  const auto cv =
      ml::cross_validate(*ml::make_classifier(ml::ClassifierKind::kJ48),
                         data, 5, rng);
  EXPECT_EQ(cv.folds.size(), 5u);
  for (const auto& fold : cv.folds) {
    EXPECT_GT(fold.accuracy, 0.5);
    EXPECT_LE(fold.accuracy, 1.0);
  }
  EXPECT_NEAR(cv.mean_accuracy, 1.0, 0.15);  // separable blobs
  EXPECT_GE(cv.stddev_accuracy, 0.0);
  EXPECT_GT(cv.mean_performance, 0.4);
}

TEST(CrossValidation, RequiresEnoughGroups) {
  Dataset data(std::vector<std::string>{"x"});
  // Only one group per class: k=2 impossible.
  for (int i = 0; i < 10; ++i) {
    data.add_row({static_cast<double>(i)}, 0, 1.0, /*group=*/0);
    data.add_row({static_cast<double>(i) + 10}, 1, 1.0, /*group=*/1);
  }
  Rng rng(6);
  EXPECT_THROW(ml::cross_validate(
                   *ml::make_classifier(ml::ClassifierKind::kOneR), data, 2,
                   rng),
               PreconditionError);
}

// ----------------------------------------------------------- randomforest --

TEST(RandomForest, SolvesXorWhereSingleGreedyTreesStall) {
  // Randomized splits break C4.5's XOR myopia: some trees split on a
  // random feature first and their children then carry real gain.
  const Dataset data = xor_data(120, 0.6, 7);
  ml::RandomForest forest(40, 1, 7);  // force 1 random feature per split
  forest.train(data);
  EXPECT_GT(train_accuracy(forest, data), 0.9);
}

TEST(RandomForest, SeparatesBlobs) {
  const Dataset data = gaussian_blobs(120, 2, 2, 1.0, 8);
  ml::RandomForest forest(20);
  forest.train(data);
  EXPECT_GT(train_accuracy(forest, data), 0.95);
}

TEST(RandomForest, GradedProbabilities) {
  const Dataset data = gaussian_blobs(120, 2, 0, 2.4, 9);
  ml::RandomForest forest(20);
  forest.train(data);
  bool graded = false;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double p = forest.predict_proba(data.row(i));
    if (p > 0.2 && p < 0.8) graded = true;
  }
  EXPECT_TRUE(graded);
}

TEST(RandomForest, ComplexityHasAllTrees) {
  const Dataset data = gaussian_blobs(60, 1, 0, 1.0, 10);
  ml::RandomForest forest(12);
  forest.train(data);
  EXPECT_EQ(ml::complexity(ml::extract_ir(forest)).children.size(), 12u);
  EXPECT_EQ(forest.num_trees(), 12u);
}

TEST(RandomTree, DeterministicGivenSeed) {
  const Dataset data = gaussian_blobs(80, 2, 1, 1.4, 11);
  ml::RandomTree a(0, 1.0, 9), b(0, 1.0, 9);
  a.train(data);
  b.train(data);
  for (std::size_t i = 0; i < data.num_rows(); i += 5)
    EXPECT_DOUBLE_EQ(a.predict_proba(data.row(i)),
                     b.predict_proba(data.row(i)));
}

// ----------------------------------------------------------------- blend --

TEST(Blend, LambdaZeroIsIdentity) {
  const auto mal = sim::make_malware(0, 0, 12, 8);
  const auto cover = sim::make_benign(2, 0, 12, 8);
  const auto same = sim::blend_toward(mal, cover, 0.0);
  EXPECT_DOUBLE_EQ(same.phases[0].frac_branch, mal.phases[0].frac_branch);
  EXPECT_TRUE(same.is_malware);
}

TEST(Blend, LambdaOneMatchesCoverBehaviour) {
  const auto mal = sim::make_malware(0, 0, 13, 8);
  const auto cover = sim::make_benign(2, 0, 13, 8);
  const auto full = sim::blend_toward(mal, cover, 1.0);
  EXPECT_DOUBLE_EQ(full.phases[0].frac_branch, cover.phases[0].frac_branch);
  EXPECT_DOUBLE_EQ(full.phases[0].syscalls_per_kilo_instr,
                   cover.phases[0].syscalls_per_kilo_instr);
  EXPECT_TRUE(full.is_malware);  // label semantics are preserved
}

TEST(Blend, MidpointIsBetween) {
  const auto mal = sim::make_malware(1, 0, 14, 8);
  const auto cover = sim::make_benign(3, 0, 14, 8);
  const auto half = sim::blend_toward(mal, cover, 0.5);
  const double lo = std::min(mal.phases[0].frac_branch,
                             cover.phases[0].frac_branch);
  const double hi = std::max(mal.phases[0].frac_branch,
                             cover.phases[0].frac_branch);
  EXPECT_GE(half.phases[0].frac_branch, lo);
  EXPECT_LE(half.phases[0].frac_branch, hi);
}

TEST(Blend, OutOfRangeLambdaRejected) {
  const auto mal = sim::make_malware(0, 0, 15, 8);
  const auto cover = sim::make_benign(0, 0, 15, 8);
  EXPECT_THROW(sim::blend_toward(mal, cover, -0.1), PreconditionError);
  EXPECT_THROW(sim::blend_toward(mal, cover, 1.1), PreconditionError);
}

// ---------------------------------------------------- counter saturation --

TEST(PmuSaturation, NarrowCountersClampAtMax) {
  hpc::PmuConfig cfg;
  cfg.counter_bits = 8;  // max 255
  hpc::Pmu pmu(cfg);
  pmu.program({sim::Event::kInstructions});
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = 200;
  pmu.observe(c);
  pmu.observe(c);  // 400 > 255 -> saturate
  EXPECT_EQ(pmu.read(sim::Event::kInstructions), 255u);
}

TEST(PmuSaturation, SingleDeltaLargerThanCapClamps) {
  // Regression: one observation bigger than the whole counter range must
  // clamp, not write through.
  hpc::PmuConfig cfg;
  cfg.counter_bits = 4;  // max 15
  hpc::Pmu pmu(cfg);
  pmu.program({sim::Event::kInstructions});
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = 5937;
  pmu.observe(c);
  EXPECT_EQ(pmu.read(sim::Event::kInstructions), 15u);
}

TEST(PmuSaturation, WideCountersDoNotClampAtTenMs) {
  hpc::Pmu pmu;  // 48-bit default
  pmu.program({sim::Event::kInstructions});
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = 30'000'000;  // a real 10ms interval
  pmu.observe(c);
  EXPECT_EQ(pmu.read(sim::Event::kInstructions), 30'000'000u);
}

TEST(PmuSaturation, SixtyFourBitNeverOverflows) {
  hpc::PmuConfig cfg;
  cfg.counter_bits = 64;
  hpc::Pmu pmu(cfg);
  pmu.program({sim::Event::kInstructions});
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = ~0ULL;
  pmu.observe(c);
  pmu.observe(c);  // would wrap; must clamp to max
  EXPECT_EQ(pmu.read(sim::Event::kInstructions), ~0ULL);
}

TEST(PmuSaturation, InvalidWidthRejected) {
  hpc::PmuConfig cfg;
  cfg.counter_bits = 0;
  EXPECT_THROW(hpc::Pmu{cfg}, PreconditionError);
  cfg.counter_bits = 65;
  EXPECT_THROW(hpc::Pmu{cfg}, PreconditionError);
}

}  // namespace
}  // namespace hmd
