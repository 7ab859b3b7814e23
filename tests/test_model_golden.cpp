// Golden model scores: pins trained-detector output bit for bit.
//
// Each case trains one grid cell on the quick corpus's split at 4 HPCs and
// folds the bits of every test-split score into one FNV-1a hash, in the
// style of test_capture_golden.cpp. The cells are the ones whose training
// path is most exposed to performance work: JRip alone, boosted and
// bagged, and the bagged MLP (the grid's slowest cell). GoldenGrid pins
// every one of the 96 quick-grid cells the same way, from one run_grid_full
// pass on 4 threads. A deliberate change of numerics must re-record the
// hashes (the failure message prints the new value) and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "ml/classifier.h"
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

TEST(GoldenGrid, EveryQuickGridCellMatchesItsRecordedScoreHash) {
  const std::vector<core::GridCell> cells = core::full_grid();
  ASSERT_EQ(cells.size(), std::size(kGridHashes));
  const std::vector<core::CellEvaluation> evals =
      core::run_grid_full(quick_context(), cells, /*threads=*/4);
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

}  // namespace
}  // namespace hmd
