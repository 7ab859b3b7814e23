// Tests for the HLS C code generator: structural checks on the emitted
// code for every supported model family, plus a full compile check of
// every family with the system C compiler when one is available.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "hw/hls_codegen.h"
#include "ml/adaboost.h"
#include "ml/bagging.h"
#include "ml/bayesnet.h"
#include "ml/classifier.h"
#include "ml/model_ir.h"
#include "ml/random_forest.h"
#include "support/check.h"
#include "test_util.h"

namespace hmd::hw {
namespace {

using testutil::gaussian_blobs;

/// The three-feature training data every generated-code case uses.
ml::Dataset codegen_data() { return gaussian_blobs(80, 2, 1, 1.2, 9); }

std::string generate_for(const ml::Classifier& model) {
  std::ostringstream os;
  generate_hls_c(os, ml::extract_ir(model), codegen_data().num_features());
  return os.str();
}

std::string generate_for(ml::ClassifierKind kind, ml::EnsembleKind ens) {
  auto model = ml::make_detector(kind, ens, 7);
  model->train(codegen_data());
  return generate_for(*model);
}

/// Compiles `code` behind a small main with the system C compiler as a
/// strict C99 translation unit. `tag` names the case; each case writes its
/// own temp files, so concurrently running cases cannot collide.
void expect_compiles_with_cc(const std::string& code, const std::string& tag) {
  const std::string base = testing::TempDir() + "hmd_codegen_" + tag;
  {
    std::ofstream out(base + ".c");
    out << code << "\nint main(void) { int32_t x[3] = {0, 0, 0}; "
           "return hmd_classify(x); }\n";
  }
  const std::string command = "cc -std=c99 -Wall -Werror -o " + base + " " +
                              base + ".c > /dev/null 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0)
      << tag << ": generated C failed to compile";
  std::remove((base + ".c").c_str());
  std::remove(base.c_str());
}

struct CodegenCase {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
};

std::string case_name(const CodegenCase& c) {
  return std::string(ml::classifier_kind_name(c.kind)) + "_" +
         std::string(ml::ensemble_kind_name(c.ensemble));
}

class CodegenFamilies : public testing::TestWithParam<CodegenCase> {};

TEST_P(CodegenFamilies, EmitsSelfContainedC) {
  const std::string code =
      generate_for(GetParam().kind, GetParam().ensemble);
  EXPECT_NE(code.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(code.find("int hmd_classify(const int32_t x[3])"),
            std::string::npos);
  // No floating point and no libc calls in the synthesizable body.
  EXPECT_EQ(code.find("double"), std::string::npos);
  EXPECT_EQ(code.find("float"), std::string::npos);
  EXPECT_EQ(code.find("malloc"), std::string::npos);
}

TEST_P(CodegenFamilies, GeneratedCodeCompilesWithSystemCc) {
  if (!testutil::have_cc()) GTEST_SKIP() << "no system C compiler available";
  expect_compiles_with_cc(generate_for(GetParam().kind, GetParam().ensemble),
                          case_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Supported, CodegenFamilies,
    testing::Values(
        CodegenCase{ml::ClassifierKind::kOneR, ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kJ48, ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kRepTree,
                    ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kJRip, ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kSgd, ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kSmo, ml::EnsembleKind::kGeneral},
        CodegenCase{ml::ClassifierKind::kJRip, ml::EnsembleKind::kAdaBoost},
        CodegenCase{ml::ClassifierKind::kRepTree,
                    ml::EnsembleKind::kBagging}),
    [](const testing::TestParamInfo<CodegenCase>& tpi) {
      return case_name(tpi.param);
    });

TEST(Codegen, EnsembleEmitsOneHelperPerMember) {
  const std::string code =
      generate_for(ml::ClassifierKind::kOneR, ml::EnsembleKind::kBagging);
  std::size_t helpers = 0, pos = 0;
  while ((pos = code.find("static int oner_", pos)) != std::string::npos) {
    ++helpers;
    pos += 1;
  }
  EXPECT_EQ(helpers, 10u);  // one helper definition per bag member
}

TEST(Codegen, UnsupportedModelRejected) {
  const ml::Dataset data = gaussian_blobs(40, 1, 0, 1.0, 10);
  ml::BayesNet bn;
  bn.train(data);
  const ml::ModelIr ir = ml::extract_ir(bn);
  EXPECT_FALSE(hls_supported(ir));
  std::ostringstream os;
  EXPECT_THROW(generate_hls_c(os, ir, 1), PreconditionError);
}

TEST(Codegen, UntrainedEnsemblesRejected) {
  // An untrained ensemble has no members to vote; emitting it would yield
  // a detector that flags every input as malware.
  for (ml::EnsembleKind ens :
       {ml::EnsembleKind::kAdaBoost, ml::EnsembleKind::kBagging}) {
    const auto untrained = ml::make_detector(ml::ClassifierKind::kJ48, ens, 7);
    std::ostringstream os;
    EXPECT_THROW(generate_hls_c(os, ml::extract_ir(*untrained), 3),
                 PreconditionError)
        << ml::ensemble_kind_name(ens);
  }
  ml::ModelIr empty;
  empty.name = "empty";
  empty.structure = ml::EnsembleIr{};
  EXPECT_FALSE(hls_supported(empty));
  std::ostringstream os;
  EXPECT_THROW(generate_hls_c(os, empty, 3), PreconditionError);
}

TEST(Codegen, SupportedPredicateMatchesGenerator) {
  const ml::Dataset data = gaussian_blobs(40, 2, 0, 1.0, 11);
  for (ml::ClassifierKind kind :
       {ml::ClassifierKind::kOneR, ml::ClassifierKind::kJ48,
        ml::ClassifierKind::kSmo}) {
    auto model = ml::make_classifier(kind, 7);
    model->train(data);
    const ml::ModelIr ir = ml::extract_ir(*model);
    EXPECT_TRUE(hls_supported(ir));
    std::ostringstream os;
    EXPECT_NO_THROW(generate_hls_c(os, ir, data.num_features()));
  }
}

TEST(Codegen, CustomFunctionNameAndWidth) {
  const ml::Dataset data = gaussian_blobs(40, 1, 0, 1.0, 12);
  auto model = ml::make_classifier(ml::ClassifierKind::kOneR, 7);
  model->train(data);
  HlsOptions opt;
  opt.function_name = "detect";
  opt.fraction_bits = 4;
  std::ostringstream os;
  generate_hls_c(os, ml::extract_ir(*model), 1, opt);
  EXPECT_NE(os.str().find("int detect(const int32_t x[1])"),
            std::string::npos);
}

TEST(Codegen, GeneratedCodeCompilesWithSystemCc) {
  // The ensembles outside CodegenFamilies: Bagged J48 and a RandomForest.
  if (!testutil::have_cc()) GTEST_SKIP() << "no system C compiler available";
  expect_compiles_with_cc(
      generate_for(ml::ClassifierKind::kJ48, ml::EnsembleKind::kBagging),
      "J48_Bagging");
  ml::RandomForest forest(12, 0, 7);
  forest.train(codegen_data());
  expect_compiles_with_cc(generate_for(forest), "RandomForest");
}

}  // namespace
}  // namespace hmd::hw
