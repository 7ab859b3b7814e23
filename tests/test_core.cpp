// Integration tests for the core framework: the end-to-end experiment
// pipeline on a miniature corpus, and the online (run-time) detector.
#include <gtest/gtest.h>

#include <memory>

#include "core/experiment.h"
#include "core/online.h"
#include "support/check.h"

namespace hmd::core {
namespace {

/// Miniature but complete experiment context, built once for the suite.
const ExperimentContext& tiny_context() {
  static const ExperimentContext ctx = [] {
    ExperimentConfig cfg;
    cfg.corpus.benign_per_template = 1;
    cfg.corpus.malware_per_template = 1;
    cfg.corpus.intervals_per_app = 8;
    return prepare_experiment(cfg);
  }();
  return ctx;
}

TEST(Experiment, CaptureShapeMatchesCorpus) {
  const auto& ctx = tiny_context();
  const std::size_t apps =
      sim::benign_template_count() + sim::malware_template_count();
  EXPECT_EQ(ctx.capture.app_names.size(), apps);
  EXPECT_EQ(ctx.full.num_rows(), apps * 8);
  EXPECT_EQ(ctx.full.num_features(), 44u);
}

TEST(Experiment, SplitIsApplicationLevel) {
  const auto& ctx = tiny_context();
  std::set<std::size_t> train_apps, test_apps;
  for (std::size_t i = 0; i < ctx.split.train.num_rows(); ++i)
    train_apps.insert(ctx.split.train.group(i));
  for (std::size_t i = 0; i < ctx.split.test.num_rows(); ++i)
    test_apps.insert(ctx.split.test.group(i));
  for (std::size_t g : test_apps) EXPECT_FALSE(train_apps.contains(g));
  EXPECT_GT(train_apps.size(), test_apps.size());
}

TEST(Experiment, RankingCoversDistinctFeatures) {
  const auto& ctx = tiny_context();
  EXPECT_GE(ctx.ranking.size(), 16u);
  std::set<std::size_t> seen;
  for (const auto& fs : ctx.ranking)
    EXPECT_TRUE(seen.insert(fs.feature).second);
}

TEST(Experiment, TopFeaturesPrefixConsistency) {
  const auto& ctx = tiny_context();
  const auto top2 = ctx.top_features(2);
  const auto top8 = ctx.top_features(8);
  ASSERT_EQ(top2.size(), 2u);
  ASSERT_EQ(top8.size(), 8u);
  EXPECT_EQ(top2[0], top8[0]);
  EXPECT_EQ(top2[1], top8[1]);
  const auto names = ctx.top_feature_names(2);
  EXPECT_EQ(names[0], ctx.full.feature_name(top8[0]));
}

TEST(Experiment, RunCellProducesSaneMetrics) {
  const auto& ctx = tiny_context();
  const auto cell = run_cell(ctx, ml::ClassifierKind::kJ48,
                             ml::EnsembleKind::kGeneral, 4);
  EXPECT_EQ(cell.hpcs, 4u);
  EXPECT_GT(cell.metrics.accuracy, 0.5);  // better than coin flip
  EXPECT_GT(cell.metrics.auc, 0.5);
  EXPECT_LE(cell.metrics.accuracy, 1.0);
  EXPECT_LE(cell.metrics.auc, 1.0);
  EXPECT_EQ(cell.complexity.kind, "tree");
}

TEST(Experiment, RunCellIsDeterministic) {
  const auto& ctx = tiny_context();
  const auto a = run_cell(ctx, ml::ClassifierKind::kBayesNet,
                          ml::EnsembleKind::kBagging, 4);
  const auto b = run_cell(ctx, ml::ClassifierKind::kBayesNet,
                          ml::EnsembleKind::kBagging, 4);
  EXPECT_DOUBLE_EQ(a.metrics.accuracy, b.metrics.accuracy);
  EXPECT_DOUBLE_EQ(a.metrics.auc, b.metrics.auc);
}

TEST(Experiment, CellScoresAlignWithTestSet) {
  const auto& ctx = tiny_context();
  const auto scores = run_cell_scores(ctx, ml::ClassifierKind::kOneR,
                                      ml::EnsembleKind::kGeneral, 2);
  EXPECT_EQ(scores.scores.size(), ctx.split.test.num_rows());
  EXPECT_EQ(scores.labels.size(), ctx.split.test.num_rows());
}

TEST(Experiment, ZeroHpcsRejected) {
  const auto& ctx = tiny_context();
  EXPECT_THROW(run_cell(ctx, ml::ClassifierKind::kOneR,
                        ml::EnsembleKind::kGeneral, 0),
               PreconditionError);
}

// ---------------------------------------------------------------- online --

/// Deterministic stand-in classifier: P(malware) = x[0] / 1000.
class FakeScorer final : public ml::Classifier {
 public:
  void train(const ml::Dataset&) override {}
  double predict_proba(std::span<const double> x) const override {
    return std::clamp(x[0] / 1000.0, 0.0, 1.0);
  }
  std::unique_ptr<ml::Classifier> clone_untrained() const override {
    return std::make_unique<FakeScorer>();
  }
  std::string name() const override { return "Fake"; }
};

sim::EventCounts counts_with_instructions(std::uint64_t n) {
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = n;
  return c;
}

TEST(Online, RejectsMoreHardwareEventsThanCounters) {
  const std::vector<sim::Event> five{
      sim::Event::kCpuCycles, sim::Event::kInstructions,
      sim::Event::kCacheMisses, sim::Event::kBranchMisses,
      sim::Event::kBranchInstructions};
  EXPECT_THROW(OnlineDetector(std::make_shared<FakeScorer>(), five),
               PreconditionError);
}

TEST(Online, AlarmWithHysteresis) {
  OnlineConfig cfg;
  cfg.ewma_alpha = 1.0;  // no smoothing: score drives the alarm directly
  cfg.alarm_on = 0.6;
  cfg.alarm_off = 0.4;
  cfg.warmup_intervals = 0;
  OnlineDetector det(std::make_shared<FakeScorer>(),
                     {sim::Event::kInstructions}, hpc::PmuConfig{}, cfg);

  EXPECT_FALSE(det.observe(counts_with_instructions(100)).alarm);  // 0.1
  EXPECT_TRUE(det.observe(counts_with_instructions(700)).alarm);   // 0.7
  // 0.5 is between off and on: the alarm latches.
  EXPECT_TRUE(det.observe(counts_with_instructions(500)).alarm);
  EXPECT_FALSE(det.observe(counts_with_instructions(300)).alarm);  // clears
}

TEST(Online, WarmupIntervalsAreIgnored) {
  OnlineConfig cfg;
  cfg.warmup_intervals = 2;
  cfg.ewma_alpha = 1.0;
  OnlineDetector det(std::make_shared<FakeScorer>(),
                     {sim::Event::kInstructions}, hpc::PmuConfig{}, cfg);
  EXPECT_FALSE(det.observe(counts_with_instructions(999)).alarm);
  EXPECT_FALSE(det.observe(counts_with_instructions(999)).alarm);
  EXPECT_TRUE(det.observe(counts_with_instructions(999)).alarm);
}

TEST(Online, ResetClearsState) {
  OnlineConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.warmup_intervals = 0;
  OnlineDetector det(std::make_shared<FakeScorer>(),
                     {sim::Event::kInstructions}, hpc::PmuConfig{}, cfg);
  det.observe(counts_with_instructions(900));
  EXPECT_TRUE(det.alarmed());
  det.reset();
  EXPECT_FALSE(det.alarmed());
  EXPECT_EQ(det.observe(counts_with_instructions(100)).interval, 0u);
}

TEST(Online, MonitorApplicationYieldsOneVerdictPerInterval) {
  OnlineDetector det(std::make_shared<FakeScorer>(),
                     {sim::Event::kInstructions});
  const auto app = sim::make_benign(0, 0, 33, 6);
  const auto timeline = monitor_application(app, det);
  EXPECT_EQ(timeline.size(), 6u);
  for (std::size_t i = 0; i < timeline.size(); ++i)
    EXPECT_EQ(timeline[i].interval, i);
}

}  // namespace
}  // namespace hmd::core
