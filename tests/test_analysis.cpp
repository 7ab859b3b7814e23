// Tests for the model-integrity analysis subsystem: IR extraction, the
// structural verifier on deliberately corrupted fixtures, the HLS contract
// lint, fixed-point range checking, and the generator/model differential.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/hls_checker.h"
#include "analysis/model_verifier.h"
#include "hw/hls_codegen.h"
#include "ml/classifier.h"
#include "ml/j48.h"
#include "ml/mlp.h"
#include "ml/model_ir.h"
#include "ml/random_forest.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::analysis {
namespace {

using ml::BucketRuleIr;
using ml::EnsembleIr;
using ml::extract_ir;
using ml::MlpIr;
using ml::ModelIr;
using ml::ModelStructure;
using ml::RuleIr;
using ml::RuleListIr;
using ml::TreeIr;
using testutil::gaussian_blobs;

bool has_code(const VerifyReport& report, const std::string& code) {
  for (const Finding& f : report.findings)
    if (f.code == code) return true;
  return false;
}

ModelIr make_ir(ModelStructure structure) {
  ModelIr ir;
  ir.name = "fixture";
  ir.structure = std::move(structure);
  return ir;
}

TreeIr valid_stump() {
  TreeIr tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {/*leaf=*/false, /*feature=*/0, /*threshold=*/1.0,
                   /*left=*/1, /*right=*/2, /*proba=*/0.5};
  tree.nodes[1] = {true, 0, 0.0, 0, 0, 0.1};
  tree.nodes[2] = {true, 0, 0.0, 0, 0, 0.9};
  return tree;
}

// ---- corrupted fixtures the verifier must reject ----------------------

TEST(ModelVerifier, ValidStumpPasses) {
  const VerifyReport report =
      verify_ir(make_ir(valid_stump()));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ModelVerifier, NanThresholdDetected) {
  TreeIr tree = valid_stump();
  tree.nodes[0].threshold = std::numeric_limits<double>::quiet_NaN();
  const VerifyReport report =
      verify_ir(make_ir(std::move(tree)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-threshold")) << report.to_string();
}

TEST(ModelVerifier, OrphanNodeDetected) {
  TreeIr tree = valid_stump();
  tree.nodes.push_back({true, 0, 0.0, 0, 0, 0.5});  // nothing points here
  const VerifyReport report =
      verify_ir(make_ir(std::move(tree)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-orphan")) << report.to_string();
}

TEST(ModelVerifier, CycleThroughRootDetected) {
  TreeIr tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {false, 0, 1.0, 1, 2, 0.5};
  tree.nodes[1] = {false, 1, 2.0, 0, 2, 0.5};  // points back at the root
  tree.nodes[2] = {true, 0, 0.0, 0, 0, 0.9};
  const VerifyReport report =
      verify_ir(make_ir(std::move(tree)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-cycle")) << report.to_string();
}

TEST(ModelVerifier, ChildIndexOutOfRangeDetected) {
  TreeIr tree = valid_stump();
  tree.nodes[0].right = 17;
  const VerifyReport report =
      verify_ir(make_ir(std::move(tree)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-child-range")) << report.to_string();
}

TEST(ModelVerifier, InvalidLeafDistributionDetected) {
  TreeIr tree = valid_stump();
  tree.nodes[1].proba = 1.5;  // not a probability
  const VerifyReport report =
      verify_ir(make_ir(std::move(tree)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-leaf-proba")) << report.to_string();
}

TEST(ModelVerifier, ContradictoryRuleDetected) {
  RuleListIr rules;
  RuleIr rule;
  rule.conditions.push_back({/*feature=*/0, /*leq=*/true, /*value=*/1.0});
  rule.conditions.push_back({/*feature=*/0, /*leq=*/false, /*value=*/2.0});
  rule.precision = 0.9;
  rules.rules.push_back(std::move(rule));
  const VerifyReport report =
      verify_ir(make_ir(std::move(rules)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "rule-contradiction")) << report.to_string();
}

TEST(ModelVerifier, ZeroWeightAdaBoostMemberDetected) {
  EnsembleIr ens;
  ens.kind = EnsembleIr::Kind::kAdaBoost;
  ens.member_weights = {0.0, 1.0};  // sums to 1, but weight 0 is invalid
  ens.member_raw_weights = {0.0, 2.0};
  BucketRuleIr stump;
  stump.cuts = {1.0};
  stump.proba = {0.1, 0.9};
  ens.members.push_back(make_ir(stump));
  ens.members.push_back(make_ir(stump));
  const VerifyReport report =
      verify_ir(make_ir(std::move(ens)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "ensemble-weight")) << report.to_string();
}

TEST(ModelVerifier, UnnormalizedEnsembleDetected) {
  EnsembleIr ens;
  ens.kind = EnsembleIr::Kind::kBagging;
  ens.member_weights = {0.7, 0.7};  // sums to 1.4
  ens.member_raw_weights = {1.0, 1.0};
  BucketRuleIr stump;
  stump.cuts = {1.0};
  stump.proba = {0.1, 0.9};
  ens.members.push_back(make_ir(stump));
  ens.members.push_back(make_ir(stump));
  const VerifyReport report =
      verify_ir(make_ir(std::move(ens)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "ensemble-normalization"))
      << report.to_string();
}

TEST(ModelVerifier, MemberDefectReportedWithContext) {
  EnsembleIr ens;
  ens.kind = EnsembleIr::Kind::kBagging;
  ens.member_weights = {1.0};
  ens.member_raw_weights = {1.0};
  TreeIr bad = valid_stump();
  bad.nodes[0].threshold = std::numeric_limits<double>::infinity();
  ens.members.push_back(make_ir(std::move(bad)));
  const VerifyReport report =
      verify_ir(make_ir(std::move(ens)));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "tree-threshold")) << report.to_string();
  EXPECT_NE(report.to_string().find("member 0"), std::string::npos);
}

// ---- clean pass-through over every trained family ---------------------

TEST(ModelVerifier, AllTrainedFamiliesVerifyClean) {
  const ml::Dataset data = gaussian_blobs(80, 2, 1, 1.2, 9);
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    for (ml::EnsembleKind ens :
         {ml::EnsembleKind::kGeneral, ml::EnsembleKind::kAdaBoost,
          ml::EnsembleKind::kBagging}) {
      auto model = ml::make_detector(kind, ens, 7);
      model->train(data);
      const VerifyReport report = verify_model(*model);
      EXPECT_TRUE(report.ok())
          << model->name() << ":\n"
          << report.to_string();
    }
  }
  ml::RandomForest forest(12, 0, 7);
  forest.train(data);
  const VerifyReport report = verify_model(forest);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ModelVerifier, UntrainedModelThrows) {
  ml::J48 untrained;
  EXPECT_THROW(extract_ir(untrained), PreconditionError);
  EXPECT_THROW(verify_model(untrained), PreconditionError);
}

// ---- HLS contract lint ------------------------------------------------

TEST(HlsLint, WhileLoopRejected) {
  const VerifyReport report = lint_hls_code(
      "static int t_0(const int32_t x[]) {\n"
      "  while (x[0] > 0) { }\n  return 0;\n}\n");
  EXPECT_TRUE(has_code(report, "hls-unbounded-loop")) << report.to_string();
}

TEST(HlsLint, LibcCallRejected) {
  const VerifyReport report = lint_hls_code(
      "static int t_0(const int32_t x[]) {\n"
      "  return abs(x[0]);\n}\n");
  EXPECT_TRUE(has_code(report, "hls-unknown-call")) << report.to_string();
}

TEST(HlsLint, RecursionRejected) {
  const VerifyReport report = lint_hls_code(
      "static int t_0(const int32_t x[]) {\n"
      "  return t_0(x);\n}\n");
  EXPECT_TRUE(has_code(report, "hls-recursion")) << report.to_string();
}

TEST(HlsLint, ForbiddenIncludeRejected) {
  const VerifyReport report = lint_hls_code("#include <math.h>\n");
  EXPECT_TRUE(has_code(report, "hls-preprocessor")) << report.to_string();
}

TEST(HlsLint, UnbalancedBracesRejected) {
  const VerifyReport report =
      lint_hls_code("static int t_0(const int32_t x[]) { return 0;\n");
  EXPECT_TRUE(has_code(report, "hls-unbalanced")) << report.to_string();
}

TEST(HlsLint, OutOfRangeComparisonConstantRejected) {
  const VerifyReport report = lint_hls_code(
      "static int t_0(const int32_t x[]) {\n"
      "  if (x[0] <= 9999999999LL) return 1;\n  return 0;\n}\n");
  EXPECT_TRUE(has_code(report, "hls-const-range")) << report.to_string();
}

TEST(HlsLint, GeneratedCodeForEveryFamilyIsClean) {
  const ml::Dataset data = gaussian_blobs(80, 2, 1, 1.2, 9);
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    for (ml::EnsembleKind ens :
         {ml::EnsembleKind::kGeneral, ml::EnsembleKind::kAdaBoost,
          ml::EnsembleKind::kBagging}) {
      auto model = ml::make_detector(kind, ens, 7);
      model->train(data);
      const ModelIr ir = extract_ir(*model);
      if (!hw::hls_supported(ir)) continue;
      std::ostringstream os;
      hw::generate_hls_c(os, ir, data.num_features());
      const VerifyReport report = lint_hls_code(os.str());
      EXPECT_TRUE(report.ok())
          << model->name() << ":\n"
          << report.to_string();
    }
  }
}

// ---- fixed-point range checking ---------------------------------------

TEST(FixedPointRange, InRangeModelPasses) {
  BucketRuleIr stump;
  stump.cuts = {10.0, 20.0};
  stump.proba = {0.1, 0.5, 0.9};
  const VerifyReport report =
      check_fixed_point_range(make_ir(stump), /*fraction_bits=*/8);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(FixedPointRange, OutOfRangeCutDetected) {
  BucketRuleIr stump;
  stump.cuts = {1.0e8};  // 1e8 << 8 overflows int32
  stump.proba = {0.1, 0.9};
  const VerifyReport report =
      check_fixed_point_range(make_ir(stump), /*fraction_bits=*/8);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, "fixed-point-range")) << report.to_string();
}

TEST(FixedPointRange, TreeThresholdScalesWithFractionBits) {
  TreeIr tree = valid_stump();
  tree.nodes[0].threshold = 1.0e6;
  // Fits at Q8 (2.56e8 < 2^31) but not at Q16 (6.6e10).
  EXPECT_TRUE(check_fixed_point_range(make_ir(tree), 8).ok());
  EXPECT_FALSE(check_fixed_point_range(make_ir(tree), 16).ok());
}

TEST(FixedPointRange, RejectsInvalidFractionBits) {
  EXPECT_THROW(check_fixed_point_range(make_ir(valid_stump()), 31),
               PreconditionError);
}

// ---- differential check ------------------------------------------------

TEST(Differential, TrainedFamiliesMatchTheirGeneratedArithmetic) {
  const ml::Dataset data = gaussian_blobs(80, 2, 1, 1.2, 9);
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    for (ml::EnsembleKind ens :
         {ml::EnsembleKind::kGeneral, ml::EnsembleKind::kAdaBoost,
          ml::EnsembleKind::kBagging}) {
      auto model = ml::make_detector(kind, ens, 7);
      model->train(data);
      const ModelIr ir = extract_ir(*model);
      if (!hw::hls_supported(ir)) continue;
      const DifferentialResult result =
          differential_check(*model, ir, data);
      EXPECT_TRUE(result.ok)
          << model->name() << ": " << result.mismatches << "/"
          << result.probes << " probes diverge";
    }
  }
}

TEST(Differential, EmptyProbeSetThrows) {
  const ml::Dataset data = gaussian_blobs(40, 1, 0, 1.0, 3);
  ml::J48 tree;
  tree.train(data);
  const ml::Dataset empty(std::vector<std::string>{"f0"});
  EXPECT_THROW(differential_check(tree, extract_ir(tree), empty),
               PreconditionError);
}

TEST(Differential, UnsupportedStructureThrows) {
  MlpIr mlp;
  mlp.inputs = 1;
  mlp.hidden = 1;
  mlp.w1 = {0.5};
  mlp.b1 = {0.0};
  mlp.w2 = {1.0};
  mlp.mean = {0.0};
  mlp.stdev = {1.0};
  const std::int32_t x[1] = {0};
  EXPECT_THROW(fixed_point_decide(make_ir(std::move(mlp)), x, 8),
               PreconditionError);
}

TEST(Differential, MirrorAgreesWithExplicitStump) {
  // x < 2.0 -> benign (0.1), else malware (0.9); Q8 boundary at 512.
  BucketRuleIr stump;
  stump.cuts = {2.0};
  stump.proba = {0.1, 0.9};
  const ModelIr ir = make_ir(std::move(stump));
  const std::int32_t below[1] = {511};
  const std::int32_t at[1] = {512};  // equal to the cut goes upward
  EXPECT_EQ(fixed_point_decide(ir, below, 8), 0);
  EXPECT_EQ(fixed_point_decide(ir, at, 8), 1);
}

}  // namespace
}  // namespace hmd::analysis
