// Contract tests for the batched inference engine (ml/infer.h): the flat
// backend must be BIT-identical to the scalar reference walk for every
// classifier kind and ensemble wrapping, across batch shapes, feature
// widths, and degenerate models. Identity here is EXPECT_EQ on doubles on
// purpose — the flat engine replays the scalar model's comparisons and
// accumulation order exactly, so even the last ulp must agree.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/fixed_backend.h"
#include "analysis/hls_checker.h"
#include "core/online.h"
#include "ml/classifier.h"
#include "ml/infer.h"
#include "ml/j48.h"
#include "ml/jrip.h"
#include "ml/metrics.h"
#include "ml/model_ir.h"
#include "ml/random_forest.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

using testutil::gaussian_blobs;

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

/// Scores `data` through both backend kinds and requires bitwise equality.
void expect_backends_identical(const Classifier& model, const Dataset& data) {
  const auto scalar = make_backend(model, InferBackendKind::kScalar);
  const auto flat = make_backend(model, InferBackendKind::kFlat);
  const std::vector<double> a = scalar->predict_proba_batch(data);
  const std::vector<double> b = flat->predict_proba_batch(data);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << "row " << i << " diverged on backend "
                          << flat->name();
}

class InferContract : public testing::TestWithParam<Case> {};

TEST_P(InferContract, FlatMatchesScalarBitwise) {
  const auto data = gaussian_blobs(60, 3, 1, 1.4, 11);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  expect_backends_identical(*clf, data);
}

TEST_P(InferContract, SingleRowBatchMatchesPredictProba) {
  const auto data = gaussian_blobs(40, 2, 0, 1.2, 5);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  const auto backend = make_active_backend(*clf);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto row = data.row(i);
    EXPECT_EQ(backend->predict_proba(row), clf->predict_proba(row));
  }
}

TEST_P(InferContract, EmptyBatchIsANoOp) {
  const auto data = gaussian_blobs(40, 2, 0, 1.2, 5);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  const auto backend = make_active_backend(*clf);
  std::vector<double> out;
  EXPECT_NO_THROW(backend->predict_proba_batch(
      std::span<const double>{}, data.num_features(), out));
}

TEST_P(InferContract, UntrainedModelFallsBackAndStillThrows) {
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  const auto backend = make_backend(*clf, InferBackendKind::kFlat);
  // Nothing to lower yet, so the flat request must resolve to the generic
  // wrapper and surface the scalar "train first" error at predict time.
  EXPECT_EQ(backend->name(), "generic");
  const std::vector<double> x{0.0, 0.0};
  EXPECT_THROW(backend->predict_proba(x), PreconditionError);
}

TEST_P(InferContract, DecisionThresholdRoutesPredict) {
  const auto data = gaussian_blobs(40, 2, 0, 1.4, 9);
  const auto clf = make_detector(GetParam().kind, GetParam().ensemble, 7);
  clf->train(data);
  for (std::size_t i = 0; i < 10; ++i) {
    const auto row = data.row(i);
    EXPECT_EQ(clf->predict(row),
              clf->predict_proba(row) >= kDecisionThreshold ? 1 : 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, InferContract,
                         testing::ValuesIn(all_cases()), case_name);

// ---------------------------------------------------------------------------
// Batch-shape and feature-width coverage beyond the per-cell contract.

TEST(Infer, FeatureWidthSweepStaysBitIdentical) {
  for (std::size_t informative : {1u, 2u, 4u}) {
    for (std::size_t noise : {1u, 4u, 12u}) {
      const auto data = gaussian_blobs(50, informative, noise, 1.3,
                                       17 + informative + noise);
      for (ClassifierKind kind :
           {ClassifierKind::kJ48, ClassifierKind::kRepTree,
            ClassifierKind::kJRip, ClassifierKind::kOneR}) {
        const auto clf = make_detector(kind, EnsembleKind::kAdaBoost, 7);
        clf->train(data);
        expect_backends_identical(*clf, data);
      }
    }
  }
}

TEST(Infer, OddBatchSizesCoverLaneRemainders) {
  // 1..19 rows exercises every remainder of the 8-wide lane groups, the
  // refill drain, and the sub-group fallback paths.
  const auto data = gaussian_blobs(40, 2, 1, 1.3, 23);
  const auto clf = make_detector(ClassifierKind::kJ48,
                                 EnsembleKind::kBagging, 7);
  clf->train(data);
  const auto scalar = make_backend(*clf, InferBackendKind::kScalar);
  const auto flat = make_backend(*clf, InferBackendKind::kFlat);
  const std::size_t nf = data.num_features();
  std::vector<double> x;
  for (std::size_t rows = 1; rows <= 19; ++rows) {
    x.clear();
    for (std::size_t i = 0; i < rows; ++i) {
      const auto row = data.row((i * 7) % data.num_rows());
      x.insert(x.end(), row.begin(), row.end());
    }
    std::vector<double> a(rows), b(rows);
    scalar->predict_proba_batch(x, nf, a);
    flat->predict_proba_batch(x, nf, b);
    for (std::size_t i = 0; i < rows; ++i)
      EXPECT_EQ(a[i], b[i]) << "rows=" << rows << " i=" << i;
  }
}

TEST(Infer, RandomForestFlattens) {
  const auto data = gaussian_blobs(60, 3, 1, 1.4, 31);
  RandomForest forest(12, 0, 7);
  forest.train(data);
  const auto backend = make_backend(forest, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(forest, data);
}

// ---------------------------------------------------------------------------
// Degenerate models.

TEST(Infer, SingleLeafTreeIsConstant) {
  // All-one-label data trains J48 to a single leaf (depth-0 walk).
  Dataset data(std::vector<std::string>{"a", "b"});
  for (std::size_t i = 0; i < 20; ++i)
    data.add_row({static_cast<double>(i), 1.0}, 0, 1.0, i / 4);
  J48 tree;
  tree.train(data);
  const auto backend = make_backend(tree, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(tree, data);
}

TEST(Infer, SingleClassRuleListUsesDefaultOnly) {
  // JRip trained on one class learns no rules for the other: the compiled
  // decision list is just the default leaf.
  Dataset data(std::vector<std::string>{"a", "b"});
  for (std::size_t i = 0; i < 24; ++i)
    data.add_row({static_cast<double>(i % 5), 2.0}, 1, 1.0, i / 4);
  JRip rip;
  rip.train(data);
  const auto backend = make_backend(rip, InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat");
  expect_backends_identical(rip, data);
}

// ---------------------------------------------------------------------------
// Backend selection plumbing.

TEST(Infer, KindNamesRoundTrip) {
  for (InferBackendKind kind :
       {InferBackendKind::kScalar, InferBackendKind::kFlat}) {
    const auto parsed = backend_kind_from_name(backend_kind_name(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(backend_kind_from_name("vectorised").has_value());
  EXPECT_FALSE(backend_kind_from_name("").has_value());
}

TEST(Infer, ProcessWideSelectionDrivesMakeActiveBackend) {
  const auto data = gaussian_blobs(30, 2, 0, 1.2, 3);
  const auto clf = make_detector(ClassifierKind::kJ48,
                                 EnsembleKind::kGeneral, 7);
  clf->train(data);
  const InferBackendKind before = infer_backend_kind();
  set_infer_backend_kind(InferBackendKind::kScalar);
  EXPECT_EQ(infer_backend_kind(), InferBackendKind::kScalar);
  EXPECT_EQ(make_active_backend(*clf)->name(), "scalar");
  set_infer_backend_kind(InferBackendKind::kFlat);
  EXPECT_EQ(make_active_backend(*clf)->name(), "flat");
  set_infer_backend_kind(before);
}

TEST(Infer, ScoreDatasetIdenticalAcrossBackendKinds) {
  const auto data = gaussian_blobs(50, 3, 1, 1.4, 19);
  const auto clf = make_detector(ClassifierKind::kRepTree,
                                 EnsembleKind::kAdaBoost, 7);
  clf->train(data);
  const InferBackendKind before = infer_backend_kind();
  set_infer_backend_kind(InferBackendKind::kScalar);
  const std::vector<double> a = score_dataset(*clf, data);
  set_infer_backend_kind(InferBackendKind::kFlat);
  const std::vector<double> b = score_dataset(*clf, data);
  set_infer_backend_kind(before);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace hmd::ml

// ---------------------------------------------------------------------------
// Cross-layer integration: the online detector and the fixed-point
// bit-simulation are InferenceBackend consumers too.

namespace hmd {
namespace {

TEST(InferOnline, VerdictsIdenticalAcrossBackends) {
  const auto data = testutil::gaussian_blobs(50, 4, 0, 1.4, 41);
  auto trainable = ml::make_detector(ml::ClassifierKind::kJ48,
                                     ml::EnsembleKind::kBagging, 7);
  trainable->train(data);
  const std::shared_ptr<const ml::Classifier> model(std::move(trainable));
  const std::vector<sim::Event> events{
      sim::Event::kBranchInstructions, sim::Event::kBranchMisses,
      sim::Event::kCacheMisses, sim::Event::kInstructions};

  const ml::InferBackendKind before = ml::infer_backend_kind();
  const auto run = [&](ml::InferBackendKind kind) {
    ml::set_infer_backend_kind(kind);
    core::OnlineDetector detector(model, events);
    const auto app = sim::make_malware(0, 3, 77, 8);
    return core::monitor_application(app, detector);
  };
  const auto flat = run(ml::InferBackendKind::kFlat);
  const auto scalar = run(ml::InferBackendKind::kScalar);
  ml::set_infer_backend_kind(before);

  ASSERT_EQ(flat.size(), scalar.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].score, scalar[i].score) << "interval " << i;
    EXPECT_EQ(flat[i].ewma, scalar[i].ewma) << "interval " << i;
    EXPECT_EQ(flat[i].alarm, scalar[i].alarm) << "interval " << i;
  }
}

TEST(InferFixedPoint, BackendMatchesFixedPointDecide) {
  const auto data = testutil::gaussian_blobs(40, 2, 0, 1.2, 13);
  ml::J48 tree;
  tree.train(data);
  constexpr int kBits = 8;
  const ml::ModelIr ir = ml::extract_ir(tree);
  const analysis::FixedPointBackend backend(ir, kBits);
  EXPECT_EQ(backend.name(), "fixed");
  std::vector<std::int32_t> encoded(data.num_features());
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < row.size(); ++f)
      encoded[f] = analysis::fixed_point_encode(row[f], kBits);
    const double p = backend.predict_proba(row);
    EXPECT_EQ(p, analysis::fixed_point_decide(ir, encoded, kBits) == 1
                     ? 1.0
                     : 0.0)
        << "row " << i;
  }
}

}  // namespace
}  // namespace hmd
