// Golden model scores: pins trained-detector output bit for bit.
//
// Each case trains one grid cell on the quick corpus's split at 4 HPCs and
// folds the bits of every test-split score into one FNV-1a hash, in the
// style of test_capture_golden.cpp. The cells are the ones whose training
// path is most exposed to performance work: JRip alone, boosted and
// bagged, and the bagged MLP (the grid's slowest cell). GoldenGrid pins
// every one of the 96 quick-grid cells the same way, from one run_grid_full
// pass on 4 threads. GoldenHls pins the generated HLS C text of the 18
// HLS-supported cells at 4 HPCs, and GoldenFlat the flat backend's scores
// of the 12 tree/rule cells plus a RandomForest on the test split and on
// probes sitting exactly on, and one ulp either side of, every split
// threshold, rule bound and bucket cut. GoldenComplexity pins every field
// of the ModelComplexity of the 96 cells and of a RandomForest, and
// GoldenRanking the quick corpus's Table 1 ranking. A deliberate change of
// numerics must re-record the hashes (the failure message prints the new
// value) and say so.
//
// HlsRun is no golden: it compiles the generated C of the 18 HLS cells,
// runs it on the test split, the boundary probes and, for every JRip rule
// bound, probes on a row where that rule decides, and requires every
// decision to equal FixedPointBackend's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/fixed_backend.h"
#include "analysis/hls_checker.h"
#include "core/experiment.h"
#include "hw/hls_codegen.h"
#include "ml/classifier.h"
#include "ml/infer.h"
#include "ml/model_ir.h"
#include "ml/random_forest.h"
#include "test_util.h"

namespace hmd {
namespace {

/// The benches' --quick corpus (bench_util.h quick_config).
const core::ExperimentContext& quick_context() {
  static const core::ExperimentContext ctx = [] {
    core::ExperimentConfig cfg;
    cfg.corpus.benign_per_template = 2;
    cfg.corpus.malware_per_template = 2;
    cfg.corpus.intervals_per_app = 10;
    cfg.threads = 2;
    return core::prepare_experiment(cfg);
  }();
  return ctx;
}

constexpr std::size_t kGoldenHpcs = 4;

struct GoldenCell {
  std::string name;
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  std::uint64_t hash;
};

std::vector<GoldenCell> golden_cells() {
  using ml::ClassifierKind;
  using ml::EnsembleKind;
  return {
      {"jrip", ClassifierKind::kJRip, EnsembleKind::kGeneral,
       0x1f29efcfe9092ae1ULL},
      {"boosted_jrip", ClassifierKind::kJRip, EnsembleKind::kAdaBoost,
       0xa2c8a2341b884689ULL},
      {"bagged_jrip", ClassifierKind::kJRip, EnsembleKind::kBagging,
       0xd2434c5688631b78ULL},
      {"bagged_mlp", ClassifierKind::kMlp, EnsembleKind::kBagging,
       0xdc74a67f4ec961f0ULL},
  };
}

void PrintTo(const GoldenCell& gc, std::ostream* os) { *os << gc.name; }

class GoldenModel : public testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenModel, TestScoreHashMatchesRecordedValue) {
  const GoldenCell& gc = GetParam();
  const core::CellScores cs = core::run_cell_scores(
      quick_context(), gc.kind, gc.ensemble, kGoldenHpcs);
  ASSERT_FALSE(cs.scores.empty());
  const std::uint64_t hash = testutil::fnv1a_bits(cs.scores);
  EXPECT_EQ(hash, gc.hash) << gc.name << ": 0x" << std::hex << hash << "ULL";
}

INSTANTIATE_TEST_SUITE_P(
    QuickSplit, GoldenModel, testing::ValuesIn(golden_cells()),
    [](const testing::TestParamInfo<GoldenCell>& tpi) {
      return tpi.param.name;
    });

/// Test-split score hashes of the 96 quick-grid cells, in full_grid()
/// order: classifier-major, then ensemble, then 16/8/4/2 HPCs.
constexpr std::uint64_t kGridHashes[96] = {
    // BayesNet / General: 16, 8, 4, 2 HPCs
    0xf4bbfad9abab9604ULL, 0x2f59bfb778bedc91ULL,
    0xdf399073b622c89aULL, 0x31a5738e71bfd38cULL,
    // BayesNet / Boosted: 16, 8, 4, 2 HPCs
    0x9754d2e7cde23c13ULL, 0x07cc1fc4bb8b2dbaULL,
    0x0905232736bac4e6ULL, 0xff67c14d6bb207c1ULL,
    // BayesNet / Bagging: 16, 8, 4, 2 HPCs
    0xc9daee7f454085b0ULL, 0xa918289e75777dd5ULL,
    0x1a209f8c380e2babULL, 0xddfc6bb8d69397c1ULL,
    // J48 / General: 16, 8, 4, 2 HPCs
    0xda51754d20af5ea1ULL, 0xec6fe16f6127d238ULL,
    0x61b68365c54e95b1ULL, 0x8f272f809edb8cf6ULL,
    // J48 / Boosted: 16, 8, 4, 2 HPCs
    0x4826174e12a81f2bULL, 0x59c07ee44d76cb9eULL,
    0x969ec59fc098f3a8ULL, 0xd3965e8fbd1fa629ULL,
    // J48 / Bagging: 16, 8, 4, 2 HPCs
    0xda29c2953323cdedULL, 0xe9d316ad00705eadULL,
    0xac6a45478ab068dfULL, 0xdb7596d1fc500b69ULL,
    // JRip / General: 16, 8, 4, 2 HPCs
    0x74c7a565f6cc93d5ULL, 0x973649500d1a8eddULL,
    0x1f29efcfe9092ae1ULL, 0xbd0296887ffe906aULL,
    // JRip / Boosted: 16, 8, 4, 2 HPCs
    0x0789be99bff7ab0dULL, 0xf7ad6e465bfe15edULL,
    0xa2c8a2341b884689ULL, 0xa696506852b1e666ULL,
    // JRip / Bagging: 16, 8, 4, 2 HPCs
    0x432b2b46d7dc9860ULL, 0xcf8ec6f2fd50163bULL,
    0xd2434c5688631b78ULL, 0xea19acb8812a33e2ULL,
    // MLP / General: 16, 8, 4, 2 HPCs
    0xd93e4c256c7bd718ULL, 0xf98e55a8c07883b3ULL,
    0x43656310a6e7febeULL, 0x0aa1a2dc966be26eULL,
    // MLP / Boosted: 16, 8, 4, 2 HPCs
    0xba6c0e00b5f685ceULL, 0x7e882a1a4cce9830ULL,
    0xc1ac5e414ddf89e8ULL, 0x0edf6eafccad9231ULL,
    // MLP / Bagging: 16, 8, 4, 2 HPCs
    0xf52fa7d45e235929ULL, 0x90d53ea2f0c7c3b0ULL,
    0xdc74a67f4ec961f0ULL, 0x20e10d75de38845bULL,
    // OneR / General: 16, 8, 4, 2 HPCs
    0xbc68562d9e5a03abULL, 0xbc68562d9e5a03abULL,
    0xbc68562d9e5a03abULL, 0xbc68562d9e5a03abULL,
    // OneR / Boosted: 16, 8, 4, 2 HPCs
    0x80cc52a766165888ULL, 0xa43353324f6eda0aULL,
    0xbb5d9ce23e3f61ebULL, 0xc8fd50cb41ce7188ULL,
    // OneR / Bagging: 16, 8, 4, 2 HPCs
    0x3cd730d02ccbd56aULL, 0x25516710fff35312ULL,
    0x7c7d95f647cd801aULL, 0x923205a3418a54d0ULL,
    // REPTree / General: 16, 8, 4, 2 HPCs
    0x40aa1943af5faf4bULL, 0x36d0e81f7a479edaULL,
    0x95d4a6a5b404e23cULL, 0xe03eb68e531071deULL,
    // REPTree / Boosted: 16, 8, 4, 2 HPCs
    0x98c375306d43d56bULL, 0x35f75ee9200bdba9ULL,
    0xa5cc5e9424971b2bULL, 0x1ccdab2851fb37d5ULL,
    // REPTree / Bagging: 16, 8, 4, 2 HPCs
    0xbf96cd662bec32acULL, 0xc6d11ded8a717a00ULL,
    0x0eb668137794f997ULL, 0xeb7f9fd5b15e2b47ULL,
    // SGD / General: 16, 8, 4, 2 HPCs
    0x3e2a39830a8e4e05ULL, 0x1502f5bbf08b08d8ULL,
    0x2f618ac07b9be465ULL, 0xa8b620738135d938ULL,
    // SGD / Boosted: 16, 8, 4, 2 HPCs
    0x3e2a39830a8e4e05ULL, 0x1502f5bbf08b08d8ULL,
    0x2f618ac07b9be465ULL, 0xa8b620738135d938ULL,
    // SGD / Bagging: 16, 8, 4, 2 HPCs
    0xcd66809409524251ULL, 0xa9cd8efc2d9250f1ULL,
    0x4f93285d5a94fbe6ULL, 0x8d227cfe045711c6ULL,
    // SMO / General: 16, 8, 4, 2 HPCs
    0xf36d448664bebd38ULL, 0x7cc6b5d5e7f4aaf8ULL,
    0x38cce6582665be65ULL, 0xf4a19c57cbe2b438ULL,
    // SMO / Boosted: 16, 8, 4, 2 HPCs
    0x620d2b82ddec0c30ULL, 0xb9e75cf1c334370dULL,
    0x9f7076f2cadd31bdULL, 0xf4a19c57cbe2b438ULL,
    // SMO / Bagging: 16, 8, 4, 2 HPCs
    0xca92d11c7f0af18eULL, 0xd6f3041a00415a1bULL,
    0x0b532fd7ae3aab49ULL, 0x23d7a658e61409f9ULL,
};

/// The 96 quick-grid cells from one run_grid_full pass on 4 threads,
/// shared by GoldenGrid and GoldenComplexity.
const std::vector<core::CellEvaluation>& quick_grid() {
  static const std::vector<core::CellEvaluation> evals = [] {
    const std::vector<core::GridCell> cells = core::full_grid();
    return core::run_grid_full(quick_context(), cells, /*threads=*/4);
  }();
  return evals;
}

TEST(GoldenGrid, EveryQuickGridCellMatchesItsRecordedScoreHash) {
  const std::vector<core::GridCell> cells = core::full_grid();
  ASSERT_EQ(cells.size(), std::size(kGridHashes));
  const std::vector<core::CellEvaluation>& evals = quick_grid();
  ASSERT_EQ(evals.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    ASSERT_FALSE(evals[i].scores.scores.empty());
    const std::uint64_t hash = testutil::fnv1a_bits(evals[i].scores.scores);
    EXPECT_EQ(hash, kGridHashes[i])
        << ml::classifier_kind_name(cells[i].classifier) << " / "
        << ml::ensemble_kind_name(cells[i].ensemble) << " / "
        << cells[i].hpcs << " HPCs: 0x" << std::hex << hash << "ULL";
  }
}

/// Appends every field of `mc` to `out`: the kind's bytes, the seven
/// counts, the number of members, then each member the same way.
void append_complexity(const ml::ModelComplexity& mc,
                       std::vector<double>& out) {
  for (const char c : mc.kind)
    out.push_back(static_cast<double>(static_cast<unsigned char>(c)));
  for (const std::size_t n :
       {mc.comparators, mc.adders, mc.multipliers, mc.table_entries,
        mc.nonlinearities, mc.depth, mc.inputs, mc.children.size()})
    out.push_back(static_cast<double>(n));
  for (const ml::ModelComplexity& child : mc.children)
    append_complexity(child, out);
}

std::uint64_t complexity_hash(const ml::ModelComplexity& mc) {
  std::vector<double> fields;
  append_complexity(mc, fields);
  return testutil::fnv1a_bits(fields);
}

/// ModelComplexity hashes of the 96 quick-grid cells, in full_grid() order
/// (classifier-major, then ensemble, then 16/8/4/2 HPCs).
constexpr std::uint64_t kComplexityHashes[96] = {
    // BayesNet / General: 16, 8, 4, 2 HPCs
    0x90f67e5d1edfce64ULL, 0x8a962bfad45cf95eULL,
    0xb04ff92ec6d79b2cULL, 0xb0a5510e427393d6ULL,
    // BayesNet / Boosted: 16, 8, 4, 2 HPCs
    0xa4c4f14e06e5a540ULL, 0x07128a066ba5e068ULL,
    0x93194c429e0118afULL, 0x8f765f954f919b86ULL,
    // BayesNet / Bagging: 16, 8, 4, 2 HPCs
    0x3a6e3ed2cb308faeULL, 0xd045f0d3ec5c0093ULL,
    0xecfd2d154a9150feULL, 0x1edda012e47d4246ULL,
    // J48 / General: 16, 8, 4, 2 HPCs
    0x5aa02862d1b69b1bULL, 0x8ba506982733391dULL,
    0xd8db4b8016d50b98ULL, 0x3c83d4e94016c6f4ULL,
    // J48 / Boosted: 16, 8, 4, 2 HPCs
    0x3c3e622462e1df92ULL, 0x3129c7884fab4879ULL,
    0xb9b900c897d87024ULL, 0xa6ac31671e62d794ULL,
    // J48 / Bagging: 16, 8, 4, 2 HPCs
    0x394ad61a3263b668ULL, 0x5b19c4e7abb44450ULL,
    0xf59f10deab00660bULL, 0x37fb134c98159f93ULL,
    // JRip / General: 16, 8, 4, 2 HPCs
    0x874c83e65911ef72ULL, 0x42a3f49d08eced98ULL,
    0xa82fb1b592a20abaULL, 0x8b5157f367718306ULL,
    // JRip / Boosted: 16, 8, 4, 2 HPCs
    0x1e82b5546eb85b02ULL, 0x5ab88fa98abe9030ULL,
    0xddea0e927d0e1e1eULL, 0x1207dac4763542d6ULL,
    // JRip / Bagging: 16, 8, 4, 2 HPCs
    0x4b13040a3124d9aeULL, 0xd82358bcbc598142ULL,
    0xd8673279af1c4263ULL, 0xc0fe895167ec5a98ULL,
    // MLP / General: 16, 8, 4, 2 HPCs
    0xf609e736c41cffeaULL, 0xbba51408af3debe2ULL,
    0xe55ee9ef1e49719cULL, 0x2e5601f50ffcec63ULL,
    // MLP / Boosted: 16, 8, 4, 2 HPCs
    0x365107ac666bbfc3ULL, 0x093da3c1a9d73ecdULL,
    0x158e38456e3d475cULL, 0x80d5a65be95b1354ULL,
    // MLP / Bagging: 16, 8, 4, 2 HPCs
    0xd3032812fa33b233ULL, 0x5884be811b9508d4ULL,
    0x42d9179a82fb6480ULL, 0xe4747f187bc1989cULL,
    // OneR / General: 16, 8, 4, 2 HPCs
    0x7db160608cb7eeeeULL, 0x7db160608cb7eeeeULL,
    0x7db160608cb7eeeeULL, 0x7db160608cb7eeeeULL,
    // OneR / Boosted: 16, 8, 4, 2 HPCs
    0xff45919d7b7f25f9ULL, 0x68508727d23e802bULL,
    0xef01b7097afbe40aULL, 0x79b19ed4cfbf68d9ULL,
    // OneR / Bagging: 16, 8, 4, 2 HPCs
    0x58417b58e4e1d6fbULL, 0x03fed10db3f0c8ffULL,
    0xe60c24dabb1e3803ULL, 0xeb37d30c8f7e8b47ULL,
    // REPTree / General: 16, 8, 4, 2 HPCs
    0xb6edbdb5e694758eULL, 0x365e277e79b7b18eULL,
    0xc23766b7a90a9ba2ULL, 0xf2bddde25afa1113ULL,
    // REPTree / Boosted: 16, 8, 4, 2 HPCs
    0x1536305ec43d5eebULL, 0xc1d7644ad4f554e8ULL,
    0x3a575da9bf5f3668ULL, 0x9d2ae1af2b3b164bULL,
    // REPTree / Bagging: 16, 8, 4, 2 HPCs
    0xf69c989146e14d04ULL, 0x1d274f190ff9df08ULL,
    0x57e359f15541f94aULL, 0xca532a68262cce8eULL,
    // SGD / General: 16, 8, 4, 2 HPCs
    0xdb3db39150b4408bULL, 0x80b7726f97da91e7ULL,
    0x9ebb39b313946f73ULL, 0x4f0e81433fada1abULL,
    // SGD / Boosted: 16, 8, 4, 2 HPCs
    0x9feaf4bc7893baddULL, 0x631a24c8d1923a3dULL,
    0x9be6cab68ad4f82dULL, 0xe28ae397a13ac7e9ULL,
    // SGD / Bagging: 16, 8, 4, 2 HPCs
    0xb979494d8fd01a88ULL, 0x283ba922fa5b1032ULL,
    0x97edf04719093904ULL, 0x8e76c92fbc76e5d6ULL,
    // SMO / General: 16, 8, 4, 2 HPCs
    0xdb3db39150b4408bULL, 0x80b7726f97da91e7ULL,
    0x9ebb39b313946f73ULL, 0x4f0e81433fada1abULL,
    // SMO / Boosted: 16, 8, 4, 2 HPCs
    0xe0a41676a1bf948eULL, 0xeccec16f1219a206ULL,
    0xd004463810c13deeULL, 0xe28ae397a13ac7e9ULL,
    // SMO / Bagging: 16, 8, 4, 2 HPCs
    0xb979494d8fd01a88ULL, 0x283ba922fa5b1032ULL,
    0x97edf04719093904ULL, 0x8e76c92fbc76e5d6ULL,
};

constexpr std::uint64_t kForestComplexityHash = 0xf4cfdf38f16b01cbULL;

TEST(GoldenComplexity, QuickGridCellsMatchRecordedHashes) {
  const std::vector<core::GridCell> cells = core::full_grid();
  ASSERT_EQ(cells.size(), std::size(kComplexityHashes));
  const std::vector<core::CellEvaluation>& evals = quick_grid();
  ASSERT_EQ(evals.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t hash = complexity_hash(evals[i].result.complexity);
    EXPECT_EQ(hash, kComplexityHashes[i])
        << ml::classifier_kind_name(cells[i].classifier) << " / "
        << ml::ensemble_kind_name(cells[i].ensemble) << " / "
        << cells[i].hpcs << " HPCs: 0x" << std::hex << hash << "ULL";
  }
}

TEST(GoldenComplexity, RandomForestMatchesRecordedHash) {
  const core::ExperimentContext& ctx = quick_context();
  ml::RandomForest forest(12, 0, ctx.config.model_seed);
  forest.train(ctx.projected_split(kGoldenHpcs).train);
  const std::uint64_t hash =
      complexity_hash(ml::complexity(ml::extract_ir(forest)));
  EXPECT_EQ(hash, kForestComplexityHash) << "RandomForest(12): 0x"
                                         << std::hex << hash << "ULL";
}

/// The quick corpus's Table 1 ranking: each event's column index and the
/// bits of its score, in rank order.
constexpr std::uint64_t kRankingHash = 0x74beebd3af0fb2e3ULL;

TEST(GoldenRanking, QuickCorpusRankingMatchesRecordedHash) {
  const std::vector<ml::FeatureScore>& ranking = quick_context().ranking;
  ASSERT_FALSE(ranking.empty());
  std::vector<double> fields;
  for (const ml::FeatureScore& fs : ranking) {
    fields.push_back(static_cast<double>(fs.feature));
    fields.push_back(fs.score);
  }
  const std::uint64_t hash = testutil::fnv1a_bits(fields);
  EXPECT_EQ(hash, kRankingHash) << "ranking: 0x" << std::hex << hash << "ULL";
}

// ---------------------------------------------------------------------------
// Generated HLS C and flat-backend scores at 4 HPCs.

std::unique_ptr<ml::Classifier> train_quick_cell(ml::ClassifierKind kind,
                                                 ml::EnsembleKind ensemble) {
  const core::ExperimentContext& ctx = quick_context();
  auto model = ml::make_detector(kind, ensemble, ctx.config.model_seed);
  model->train(ctx.projected_split(kGoldenHpcs).train);
  return model;
}

std::string cell_name(ml::ClassifierKind kind, ml::EnsembleKind ensemble) {
  return std::string(ml::classifier_kind_name(kind)) + " / " +
         std::string(ml::ensemble_kind_name(ensemble));
}

struct HashedCell {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  std::uint64_t hash;
};

/// fnv1a_bits over the generated C text, one double per byte.
constexpr HashedCell kHlsHashes[] = {
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kGeneral,
     0xa6671ec9860b49a8ULL},
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kAdaBoost,
     0x49c11d5ce34606a5ULL},
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kBagging,
     0x7f3c8f4bf31e736eULL},
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kGeneral,
     0x987b93a03efc05abULL},
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kAdaBoost,
     0xca76b1e8cf49aff8ULL},
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kBagging,
     0x3ee157e9dab2a624ULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kGeneral,
     0x34f17779c0273ca5ULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kAdaBoost,
     0x47e5156ae0b1e254ULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kBagging,
     0x6fb7fd11c0dc93c9ULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kGeneral,
     0xf214ed51db52c2aaULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kAdaBoost,
     0x542ec5a3f44f60f6ULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kBagging,
     0x6b15d3f1c81c0878ULL},
    {ml::ClassifierKind::kSgd, ml::EnsembleKind::kGeneral,
     0xf3b14e2ceed0d4f1ULL},
    {ml::ClassifierKind::kSgd, ml::EnsembleKind::kAdaBoost,
     0x1b420f89fd33489fULL},
    {ml::ClassifierKind::kSgd, ml::EnsembleKind::kBagging,
     0x39aad07ecb70f84cULL},
    {ml::ClassifierKind::kSmo, ml::EnsembleKind::kGeneral,
     0xed7836989ea6f7edULL},
    {ml::ClassifierKind::kSmo, ml::EnsembleKind::kAdaBoost,
     0x568bb2459d5a75ceULL},
    {ml::ClassifierKind::kSmo, ml::EnsembleKind::kBagging,
     0x958496f95b0c4b1aULL},
};

TEST(GoldenHls, SupportedQuickGridCellsMatchRecordedCodeHashes) {
  hw::HlsOptions options;
  options.fraction_bits = 8;
  for (const HashedCell& cell : kHlsHashes) {
    const auto model = train_quick_cell(cell.kind, cell.ensemble);
    std::ostringstream os;
    hw::generate_hls_c(os, ml::extract_ir(*model), kGoldenHpcs, options);
    const std::string code = os.str();
    std::vector<double> bytes;
    for (const char c : code)
      bytes.push_back(static_cast<double>(static_cast<unsigned char>(c)));
    const std::uint64_t hash = testutil::fnv1a_bits(bytes);
    EXPECT_EQ(hash, cell.hash) << cell_name(cell.kind, cell.ensemble)
                               << ": 0x" << std::hex << hash << "ULL";
  }
}

/// Every (feature, value) the flat lowering compares against: tree split
/// thresholds, rule bounds and bucket cuts, in structure order.
void collect_cuts(const ml::ModelIr& ir,
                  std::vector<std::pair<std::size_t, double>>& cuts) {
  if (const auto* tree = std::get_if<ml::TreeIr>(&ir.structure)) {
    for (const ml::TreeNodeIr& node : tree->nodes)
      if (!node.leaf) cuts.emplace_back(node.feature, node.threshold);
  } else if (const auto* rules =
                 std::get_if<ml::RuleListIr>(&ir.structure)) {
    for (const ml::RuleIr& rule : rules->rules)
      for (const ml::RuleConditionIr& c : rule.conditions)
        cuts.emplace_back(c.feature, c.value);
  } else if (const auto* buckets =
                 std::get_if<ml::BucketRuleIr>(&ir.structure)) {
    for (const double cut : buckets->cuts)
      cuts.emplace_back(buckets->feature, cut);
  } else if (const auto* ens =
                 std::get_if<ml::EnsembleIr>(&ir.structure)) {
    for (const ml::ModelIr& member : ens->members)
      collect_cuts(member, cuts);
  }
}

/// The test split's rows, then for every cut three copies of a test row
/// with that feature on the cut and one ulp either side of it.
std::vector<double> boundary_probes(const ml::ModelIr& ir,
                                    const ml::Dataset& test) {
  std::vector<double> x;
  for (std::size_t i = 0; i < test.num_rows(); ++i) {
    const auto row = test.row(i);
    x.insert(x.end(), row.begin(), row.end());
  }
  std::vector<std::pair<std::size_t, double>> cuts;
  collect_cuts(ir, cuts);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const auto [feature, value] = cuts[k];
    for (const double v : {value, std::nextafter(value, -kInf),
                           std::nextafter(value, kInf)}) {
      const auto row = test.row(k % test.num_rows());
      std::vector<double> probe(row.begin(), row.end());
      probe[feature] = v;
      x.insert(x.end(), probe.begin(), probe.end());
    }
  }
  return x;
}

std::uint64_t flat_probe_hash(const ml::Classifier& model) {
  const ml::Dataset& test = quick_context().projected_split(kGoldenHpcs).test;
  const auto backend = ml::make_backend(model, ml::InferBackendKind::kFlat);
  EXPECT_EQ(backend->name(), "flat") << model.name();
  const std::vector<double> x = boundary_probes(ml::extract_ir(model), test);
  std::vector<double> scores(x.size() / test.num_features());
  backend->predict_proba_batch(x, test.num_features(), scores);
  std::vector<double> scalar(scores.size());
  ml::make_backend(model, ml::InferBackendKind::kScalar)
      ->predict_proba_batch(x, test.num_features(), scalar);
  EXPECT_EQ(testutil::fnv1a_bits(scalar), testutil::fnv1a_bits(scores))
      << model.name() << ": flat and scalar scores diverge on the probes";
  return testutil::fnv1a_bits(scores);
}

constexpr HashedCell kFlatHashes[] = {
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kGeneral,
     0xa8561b9b3cc30684ULL},
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kAdaBoost,
     0xb9f768d77282fbcfULL},
    {ml::ClassifierKind::kJ48, ml::EnsembleKind::kBagging,
     0x2678572cc95cc38bULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kGeneral,
     0x4de3bf4c52856761ULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kAdaBoost,
     0xbc00410e914a6a44ULL},
    {ml::ClassifierKind::kJRip, ml::EnsembleKind::kBagging,
     0x2ba208e4780e1d75ULL},
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kGeneral,
     0x9122e9049a668176ULL},
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kAdaBoost,
     0x72be8a179b45fcb5ULL},
    {ml::ClassifierKind::kOneR, ml::EnsembleKind::kBagging,
     0x0b99e798dd927345ULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kGeneral,
     0x64b55bea763b7d38ULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kAdaBoost,
     0x01428d95e88cb9cfULL},
    {ml::ClassifierKind::kRepTree, ml::EnsembleKind::kBagging,
     0x793ea188f2534c8cULL},
};

constexpr std::uint64_t kForestFlatHash = 0x8737b95fb141d1dbULL;

TEST(GoldenFlat, LoweredQuickGridCellsMatchRecordedProbeHashes) {
  for (const HashedCell& cell : kFlatHashes) {
    const auto model = train_quick_cell(cell.kind, cell.ensemble);
    const std::uint64_t hash = flat_probe_hash(*model);
    EXPECT_EQ(hash, cell.hash) << cell_name(cell.kind, cell.ensemble)
                               << ": 0x" << std::hex << hash << "ULL";
  }
}

TEST(GoldenFlat, RandomForestMatchesRecordedProbeHash) {
  const core::ExperimentContext& ctx = quick_context();
  ml::RandomForest forest(12, 0, ctx.config.model_seed);
  forest.train(ctx.projected_split(kGoldenHpcs).train);
  const std::uint64_t hash = flat_probe_hash(forest);
  EXPECT_EQ(hash, kForestFlatHash) << "RandomForest(12): 0x" << std::hex
                                   << hash << "ULL";
}

// ---------------------------------------------------------------------------
// The generated HLS C, compiled and run on probes.

/// The value one Q(fraction_bits) LSB away from `value`'s encoding
/// (`lsb` = -1 or +1).
double lsb_step(double value, double lsb, int fraction_bits) {
  const std::int32_t q = analysis::fixed_point_encode(value, fraction_bits);
  return (static_cast<double>(q) + lsb) / std::ldexp(1.0, fraction_bits);
}

void collect_rule_lists(const ml::ModelIr& ir,
                        std::vector<const ml::RuleListIr*>& lists) {
  if (const auto* rules = std::get_if<ml::RuleListIr>(&ir.structure)) {
    lists.push_back(rules);
  } else if (const auto* ens = std::get_if<ml::EnsembleIr>(&ir.structure)) {
    for (const ml::ModelIr& member : ens->members)
      collect_rule_lists(member, lists);
  }
}

/// A row on which rule `r` of `list` decides: every condition of `r` holds
/// (constrained features sit on their tightest bound) and every earlier
/// rule fails, through a feature `r` leaves free pushed past all of that
/// feature's bounds. nullopt when the earlier rules cannot all be failed
/// that way.
std::optional<std::vector<double>> rule_deciding_row(
    const ml::RuleListIr& list, std::size_t r, std::vector<double> row) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t nf = row.size();
  std::vector<double> lo(nf, -kInf), hi(nf, kInf);
  std::vector<double> min_bound(nf, kInf), max_bound(nf, -kInf);
  for (const ml::RuleIr& rule : list.rules)
    for (const ml::RuleConditionIr& c : rule.conditions) {
      min_bound[c.feature] = std::min(min_bound[c.feature], c.value);
      max_bound[c.feature] = std::max(max_bound[c.feature], c.value);
    }
  for (const ml::RuleConditionIr& c : list.rules[r].conditions) {
    if (c.leq) hi[c.feature] = std::min(hi[c.feature], c.value);
    else lo[c.feature] = std::max(lo[c.feature], c.value);
  }
  // +1: pushed above every bound (fails all `<=`), -1: below (fails `>=`).
  std::vector<int> push(nf, 0);
  for (std::size_t f = 0; f < nf; ++f) {
    if (lo[f] > hi[f]) return std::nullopt;  // the rule can never fire
    if (lo[f] > -kInf) row[f] = lo[f];
    else if (hi[f] < kInf) row[f] = hi[f];
  }
  const auto free = [&](std::size_t f) {
    return lo[f] == -kInf && hi[f] == kInf;
  };
  for (std::size_t k = 0; k < r; ++k) {
    bool failed = false;
    for (const ml::RuleConditionIr& c : list.rules[k].conditions)
      failed = failed || push[c.feature] == (c.leq ? 1 : -1);
    for (const ml::RuleConditionIr& c : list.rules[k].conditions) {
      if (failed) break;
      if (!free(c.feature) || push[c.feature] != 0) continue;
      push[c.feature] = c.leq ? 1 : -1;
      failed = true;
    }
    if (!failed) return std::nullopt;
  }
  for (std::size_t f = 0; f < nf; ++f) {
    if (push[f] > 0) row[f] = max_bound[f] + 1.0;
    if (push[f] < 0) row[f] = min_bound[f] - 1.0;
  }
  return row;
}

/// boundary_probes plus, for every cut, two copies of a test row with that
/// feature one LSB either side of the cut's Q(fraction_bits) encoding.
/// Then, for every rule condition of every rule list, the same five values
/// of the condition's feature on a row where that rule decides: a probe
/// from an arbitrary test row reaches a rule bound only when the row
/// already satisfies the rest of the antecedent and no earlier rule fires.
std::vector<double> hls_probes(const ml::ModelIr& ir, const ml::Dataset& test,
                               int fraction_bits) {
  std::vector<double> x = boundary_probes(ir, test);
  std::vector<std::pair<std::size_t, double>> cuts;
  collect_cuts(ir, cuts);
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    const auto [feature, value] = cuts[k];
    for (const double lsb : {-1.0, 1.0}) {
      const auto row = test.row(k % test.num_rows());
      std::vector<double> probe(row.begin(), row.end());
      probe[feature] = lsb_step(value, lsb, fraction_bits);
      x.insert(x.end(), probe.begin(), probe.end());
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<const ml::RuleListIr*> lists;
  collect_rule_lists(ir, lists);
  const auto base = test.row(0);
  for (const ml::RuleListIr* list : lists) {
    for (std::size_t r = 0; r < list->rules.size(); ++r) {
      const auto row = rule_deciding_row(
          *list, r, std::vector<double>(base.begin(), base.end()));
      if (!row) continue;
      for (const ml::RuleConditionIr& c : list->rules[r].conditions) {
        for (const double v :
             {c.value, std::nextafter(c.value, -kInf),
              std::nextafter(c.value, kInf),
              lsb_step(c.value, -1.0, fraction_bits),
              lsb_step(c.value, 1.0, fraction_bits)}) {
          std::vector<double> probe = *row;
          probe[c.feature] = v;
          x.insert(x.end(), probe.begin(), probe.end());
        }
      }
    }
  }
  return x;
}

/// Compiles `code` behind a main that reads whitespace-separated int32
/// rows of `num_inputs` values from argv[1] and prints one decision per
/// row, runs it on `encoded`, and returns the decisions. `tag` names the
/// cell; each cell uses its own temp files.
std::vector<int> run_generated_c(const std::string& code,
                                 std::size_t num_inputs,
                                 const std::vector<std::int32_t>& encoded,
                                 const std::string& tag) {
  const std::string base = testing::TempDir() + "hmd_hls_run_" + tag;
  {
    std::ofstream out(base + ".c");
    out << code << "\n#include <stdio.h>\n"
        << "int main(int argc, char** argv) {\n"
        << "  int32_t x[" << num_inputs << "];\n"
        << "  int v;\n"
        << "  FILE* in;\n"
        << "  if (argc != 2 || !(in = fopen(argv[1], \"r\"))) return 2;\n"
        << "  for (;;) {\n"
        << "    for (int f = 0; f < " << num_inputs << "; ++f) {\n"
        << "      if (fscanf(in, \"%d\", &v) != 1) { fclose(in); return 0; }\n"
        << "      x[f] = (int32_t)v;\n"
        << "    }\n"
        << "    printf(\"%d\\n\", hmd_classify(x));\n"
        << "  }\n"
        << "}\n";
  }
  {
    std::ofstream rows(base + ".rows");
    for (std::size_t i = 0; i < encoded.size(); ++i)
      rows << encoded[i] << ((i + 1) % num_inputs == 0 ? '\n' : ' ');
  }
  std::vector<int> decisions;
  const std::string compile = "cc -std=c99 -Wall -Werror -o " + base + " " +
                              base + ".c > /dev/null 2>&1";
  const std::string run = base + " " + base + ".rows > " + base + ".out";
  if (std::system(compile.c_str()) != 0) {
    ADD_FAILURE() << tag << ": generated C failed to compile";
  } else if (std::system(run.c_str()) != 0) {
    ADD_FAILURE() << tag << ": generated C driver failed";
  } else {
    std::ifstream out(base + ".out");
    for (int d; out >> d;) decisions.push_back(d);
  }
  for (const char* suffix : {".c", ".rows", ".out", ""})
    std::remove((base + suffix).c_str());
  return decisions;
}

TEST(HlsRun, EmittedCDecidesLikeFixedPointBackend) {
  if (!testutil::have_cc()) GTEST_SKIP() << "no system C compiler available";
  constexpr int kFractionBits = 8;
  hw::HlsOptions options;
  options.fraction_bits = kFractionBits;
  const ml::Dataset& test = quick_context().projected_split(kGoldenHpcs).test;
  const std::size_t nf = test.num_features();
  for (const HashedCell& cell : kHlsHashes) {
    const std::string name = cell_name(cell.kind, cell.ensemble);
    const auto model = train_quick_cell(cell.kind, cell.ensemble);
    const ml::ModelIr ir = ml::extract_ir(*model);
    std::ostringstream code;
    hw::generate_hls_c(code, ir, nf, options);

    const std::vector<double> x = hls_probes(ir, test, kFractionBits);
    std::vector<std::int32_t> encoded(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      encoded[i] = analysis::fixed_point_encode(x[i], kFractionBits);
    std::vector<double> mirror(x.size() / nf);
    analysis::FixedPointBackend(ir, kFractionBits)
        .predict_proba_batch(x, nf, mirror);

    const std::string tag =
        std::string(ml::classifier_kind_name(cell.kind)) + "_" +
        std::string(ml::ensemble_kind_name(cell.ensemble));
    const std::vector<int> decisions =
        run_generated_c(code.str(), nf, encoded, tag);
    ASSERT_EQ(decisions.size(), mirror.size()) << name;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < decisions.size(); ++i)
      if (decisions[i] != (mirror[i] == 1.0 ? 1 : 0)) ++mismatches;
    EXPECT_EQ(mismatches, 0u) << name << ": " << mismatches << " of "
                              << decisions.size() << " probe decisions differ";
  }
}

}  // namespace
}  // namespace hmd
