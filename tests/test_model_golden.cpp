// Golden model scores: pins trained-detector output bit for bit.
//
// Each case trains one grid cell on the quick corpus's split at 4 HPCs and
// folds the bits of every test-split score into one FNV-1a hash, in the
// style of test_capture_golden.cpp. The cells are the ones whose training
// path is most exposed to performance work: JRip alone, boosted and
// bagged, and the bagged MLP (the grid's slowest cell). A deliberate
// change of numerics must re-record the hashes (the failure message prints
// the new value) and say so.
#include <gtest/gtest.h>

#include <cstdint>
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

}  // namespace
}  // namespace hmd
