// Tests for the drift-detection and model-refresh layer (serve/drift.h,
// ml/refit.h) and its controller integration: the Page-Hinkley change
// detector, per-shard score windows, the fleet-wide DriftDetector's warmup
// and min-shards gating, the copy-on-write window refit, and — the core
// contract — that the drift trigger, the background retrain, and the
// hot-swap all land in run_fleet's deterministic domain: counters and
// verdict streams bit-identical across worker counts straight through a
// mid-run model swap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/infer.h"
#include "ml/refit.h"
#include "serve/controller.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "sim/events.h"
#include "support/check.h"
#include "support/rng.h"
#include "test_util.h"

namespace hmd {
namespace {

// ---------------------------------------------------------------------------
// PageHinkley: two-sided cumulative change detection.

TEST(PageHinkley, StationaryStreamNeverTrips) {
  serve::PageHinkley ph(0.005, 0.1);
  Rng rng(41);
  for (int i = 0; i < 500; ++i)
    ph.observe(0.2 + 0.01 * (rng.uniform() - 0.5));
  EXPECT_FALSE(ph.tripped());
  EXPECT_EQ(ph.observations(), 500u);
}

TEST(PageHinkley, UpwardMeanShiftTrips) {
  serve::PageHinkley ph(0.005, 0.1);
  for (int i = 0; i < 100; ++i) ph.observe(0.1);
  EXPECT_FALSE(ph.tripped());
  for (int i = 0; i < 50 && !ph.tripped(); ++i) ph.observe(0.5);
  EXPECT_TRUE(ph.tripped());
  EXPECT_GT(ph.excursion(), 0.1);
}

TEST(PageHinkley, DownwardMeanShiftTrips) {
  serve::PageHinkley ph(0.005, 0.1);
  for (int i = 0; i < 100; ++i) ph.observe(0.8);
  EXPECT_FALSE(ph.tripped());
  for (int i = 0; i < 50 && !ph.tripped(); ++i) ph.observe(0.3);
  EXPECT_TRUE(ph.tripped());
}

TEST(PageHinkley, PureFunctionOfTheObservationSequence) {
  serve::PageHinkley a(0.01, 0.2);
  serve::PageHinkley b(0.01, 0.2);
  Rng rng(77);
  for (int i = 0; i < 300; ++i) {
    const double x = 0.3 + 0.4 * rng.uniform();
    a.observe(x);
    b.observe(x);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.excursion()),
              std::bit_cast<std::uint64_t>(b.excursion()));
    ASSERT_EQ(a.tripped(), b.tripped());
  }
}

// ---------------------------------------------------------------------------
// ShardScoreWindow: per-check score accumulation.

TEST(ShardScoreWindow, TracksMeanAndTailOfTheStream) {
  serve::ShardScoreWindow w(0.95);
  EXPECT_TRUE(w.empty());
  for (int i = 0; i < 100; ++i)
    w.observe(static_cast<double>(i) / 99.0);
  EXPECT_FALSE(w.empty());
  EXPECT_EQ(w.samples(), 100u);
  EXPECT_NEAR(w.mean(), 0.5, 1e-9);
  EXPECT_NEAR(w.tail(), 0.95, 0.05);  // P² approximation of the quantile
}

TEST(ShardScoreWindow, ResetRestoresTheEmptyState) {
  serve::ShardScoreWindow w(0.9);
  for (int i = 0; i < 32; ++i) w.observe(0.7);
  w.reset();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.samples(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  // The tail estimator restarts too: a fresh stream defines the estimate.
  w.observe(0.1);
  EXPECT_DOUBLE_EQ(w.tail(), 0.1);
}

// ---------------------------------------------------------------------------
// DriftDetector: warmup and min-shards gating at fleet level.

std::vector<serve::ShardScoreWindow> windows_at(
    const std::vector<double>& means, double tail_q) {
  std::vector<serve::ShardScoreWindow> ws;
  for (const double m : means) {
    serve::ShardScoreWindow w(tail_q);
    for (int i = 0; i < 64; ++i) w.observe(m);
    ws.push_back(std::move(w));
  }
  return ws;
}

TEST(DriftDetector, WarmupChecksNeverFire) {
  serve::DriftDetectorConfig cfg;
  cfg.enabled = true;
  cfg.warmup_checks = 2;
  cfg.min_shards = 1;
  serve::DriftDetector det(cfg, 3);
  // Quiet during warmup even though the stream is wildly shifted versus
  // anything — there is no baseline yet to shift from.
  const auto quiet = windows_at({0.05, 0.05, 0.05}, cfg.tail_q);
  EXPECT_FALSE(det.check(quiet, 7));
  EXPECT_FALSE(det.check(quiet, 15));
  // First post-warmup check with a genuine shift fires.
  const auto shifted = windows_at({0.9, 0.9, 0.9}, cfg.tail_q);
  EXPECT_TRUE(det.check(shifted, 23));
  EXPECT_TRUE(det.triggered());
  EXPECT_EQ(det.trigger_tick(), 23u);
  EXPECT_EQ(det.checks(), 3u);
  EXPECT_EQ(det.triggers(), 1u);
}

TEST(DriftDetector, RequiresMinShardsToFire) {
  serve::DriftDetectorConfig cfg;
  cfg.enabled = true;
  cfg.warmup_checks = 1;
  cfg.min_shards = 2;
  serve::DriftDetector det(cfg, 4);
  EXPECT_FALSE(det.check(windows_at({0.1, 0.1, 0.1, 0.1}, cfg.tail_q), 7));
  // One shard drifting is not a fleet event.
  EXPECT_FALSE(det.check(windows_at({0.9, 0.1, 0.1, 0.1}, cfg.tail_q), 15));
  EXPECT_FALSE(det.triggered());
  // Two shards is. The first shard's trip is latched from the previous
  // check, so this one only has to add the second.
  EXPECT_TRUE(det.check(windows_at({0.9, 0.9, 0.1, 0.1}, cfg.tail_q), 23));
  EXPECT_TRUE(det.triggered());
  EXPECT_EQ(det.trigger_tick(), 23u);
  EXPECT_GE(det.tripped_shards(), 2u);
}

TEST(DriftDetector, EmptyWindowsCarryNoEvidence) {
  serve::DriftDetectorConfig cfg;
  cfg.enabled = true;
  cfg.warmup_checks = 1;
  cfg.min_shards = 1;
  serve::DriftDetector det(cfg, 2);
  std::vector<serve::ShardScoreWindow> empty(2, serve::ShardScoreWindow(0.95));
  EXPECT_FALSE(det.check(empty, 7));
  EXPECT_FALSE(det.check(empty, 15));
  EXPECT_FALSE(det.check(empty, 23));
  EXPECT_FALSE(det.triggered());
  EXPECT_EQ(det.checks(), 3u);
}

// ---------------------------------------------------------------------------
// refit_with_windows: copy-on-write augmentation.

ml::Dataset base_blobs() { return testutil::gaussian_blobs(60, 3, 1, 0.8, 11); }

/// Rows of a "novel family" the base blobs never show: on the benign side
/// of the frozen boundary (centre -0.9 per informative axis), so the base
/// model misses them and only a refit with labelled windows can catch them.
std::vector<double> novel_rows(std::size_t n, std::uint64_t seed) {
  std::vector<double> rows;
  Rng rng(seed);
  for (std::size_t r = 0; r < n; ++r) {
    for (int j = 0; j < 3; ++j) rows.push_back(rng.gaussian(-0.9, 0.1));
    rows.push_back(rng.gaussian(0.0, 1.0));  // the noise column
  }
  return rows;
}

TEST(RefitWithWindows, AugmentsWithoutMutatingTheBaseSplit) {
  const ml::Dataset base = base_blobs();
  const std::size_t base_rows = base.num_rows();
  const std::vector<double> rows = novel_rows(48, 5);
  const std::vector<int> labels(48, 1);

  ml::RefitConfig cfg;
  cfg.window_weight = 2.0;
  const auto model = ml::refit_with_windows(base, rows, 4, labels, cfg);
  ASSERT_NE(model, nullptr);
  // Copy-on-write: the cached base split is untouched by the refit.
  EXPECT_EQ(base.num_rows(), base_rows);

  // The refit model owns the novel region the base model called benign.
  auto frozen = ml::make_detector(cfg.kind, cfg.ensemble, cfg.seed);
  frozen->train(base);
  const std::span<const double> probe(rows);
  std::size_t frozen_hits = 0, refit_hits = 0;
  for (std::size_t r = 0; r < 48; ++r) {
    const auto x = probe.subspan(r * 4, 4);
    frozen_hits += frozen->predict(x) == 1 ? 1 : 0;
    refit_hits += model->predict(x) == 1 ? 1 : 0;
  }
  EXPECT_GT(refit_hits, frozen_hits);
  EXPECT_GT(refit_hits, 40u);  // the refit catches (nearly) all of them
  // ... without surrendering the original benign class.
  std::size_t benign_ok = 0;
  for (std::size_t i = 0; i < base.num_rows(); ++i)
    if (base.label(i) == 0 && model->predict(base.row(i)) == 0) ++benign_ok;
  EXPECT_GT(benign_ok, 50u);  // of 60 benign base rows
}

TEST(RefitWithWindows, DeterministicInItsInputs) {
  const ml::Dataset base = base_blobs();
  const std::vector<double> rows = novel_rows(24, 9);
  const std::vector<int> labels(24, 1);
  ml::RefitConfig cfg;
  const auto a = ml::refit_with_windows(base, rows, 4, labels, cfg);
  const auto b = ml::refit_with_windows(base, rows, 4, labels, cfg);
  const std::span<const double> probe(rows);
  for (std::size_t r = 0; r < 24; ++r) {
    const auto x = probe.subspan(r * 4, 4);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a->predict_proba(x)),
              std::bit_cast<std::uint64_t>(b->predict_proba(x)));
  }
}

TEST(RefitWithWindows, RejectsMalformedWindows) {
  const ml::Dataset base = base_blobs();
  const std::vector<double> rows = novel_rows(4, 3);
  const std::vector<int> labels(3, 1);  // 4 rows, 3 labels
  ml::RefitConfig cfg;
  EXPECT_THROW(ml::refit_with_windows(base, rows, 4, labels, cfg),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Controller integration: a hand-built fleet with a mid-run campaign wave.
//
// Same shape as test_serve.cpp's synthetic fleet (make_fleet's offline
// phase costs seconds; the drift contract doesn't care where the bank came
// from): app 0 replays benign rows at -2, app 1 a trained malware family
// at +2, app 2 the NOVEL family at +1.3 — behaviour the base training
// split never contained, injected mid-run by campaign-recruited hosts.

constexpr std::size_t kFeat = 4;
constexpr std::size_t kRowsPerApp = 6;
constexpr std::size_t kHosts = 60;
constexpr std::uint32_t kTicks = 96;
constexpr std::uint32_t kCampaignOnset = 48;

serve::FleetSetup drift_fleet() {
  serve::FleetSetup f;
  f.cfg.hosts = kHosts;
  f.cfg.ticks = kTicks;
  f.cfg.seed = 321;
  f.cfg.drop_rate = 0.02;
  f.cfg.scale_sigma = 0.05;

  ml::Dataset train = base_blobs();
  auto clf = ml::make_detector(ml::ClassifierKind::kJRip,
                               ml::EnsembleKind::kBagging, 7);
  clf->train(train);
  f.model = std::move(clf);
  f.backend = ml::make_active_backend(*f.model);
  f.base_train = std::move(train);  // the refit's cached base split
  f.events = {sim::Event::kCpuCycles, sim::Event::kInstructions,
              sim::Event::kCacheMisses, sim::Event::kBranchMisses};
  f.num_features = kFeat;

  Rng rng(99);
  const double centres[] = {-2.0, 2.0, 1.3};
  for (int app = 0; app < 3; ++app) {
    f.app_begin.push_back(f.bank.size() / kFeat);
    f.app_rows.push_back(kRowsPerApp);
    f.app_labels.push_back(app == 0 ? 0 : 1);
    for (std::size_t r = 0; r < kRowsPerApp; ++r)
      for (std::size_t j = 0; j < kFeat; ++j)
        f.bank.push_back(j < 3 ? centres[app] + 0.4 * (rng.uniform() - 0.5)
                               : 0.1);
  }

  for (std::size_t h = 0; h < kHosts; ++h) {
    serve::HostProfile p;
    p.benign_app = 0;
    p.malware_app = 1;
    p.phase = static_cast<std::uint32_t>(h % kRowsPerApp);
    if (h % 4 == 2) {
      // The campaign wave: every shard (5 below) gets recruits, with
      // onsets staggered over 3 ticks.
      p.campaign = true;
      p.campaign_app = 2;
      p.campaign_onset = kCampaignOnset + static_cast<std::uint32_t>(h % 3);
      ++f.campaign_hosts;
    }
    f.hosts.push_back(p);
  }
  return f;
}

const serve::FleetSetup& shared_drift_fleet() {
  static const serve::FleetSetup fleet = drift_fleet();
  return fleet;
}

serve::ServeConfig drift_config() {
  serve::ServeConfig cfg;
  cfg.threads = 1;
  cfg.shards = 5;
  cfg.record_verdicts = true;
  cfg.drift.enabled = true;
  cfg.drift.check_interval = 8;
  cfg.drift.warmup_checks = 2;
  cfg.drift.min_shards = 2;
  cfg.refresh.harvest_ticks = 6;
  cfg.refresh.refresh_lag_ticks = 20;
  cfg.refresh.max_window_rows = 256;
  return cfg;
}

void expect_same_reports(const serve::ServeReport& a,
                         const serve::ServeReport& b) {
  const serve::ServeCounters& ca = a.counters;
  const serve::ServeCounters& cb = b.counters;
  EXPECT_EQ(ca.hosts, cb.hosts);
  EXPECT_EQ(ca.ticks, cb.ticks);
  EXPECT_EQ(ca.shards, cb.shards);
  EXPECT_EQ(ca.offered, cb.offered);
  EXPECT_EQ(ca.missing, cb.missing);
  EXPECT_EQ(ca.emitted, cb.emitted);
  EXPECT_EQ(ca.admitted, cb.admitted);
  EXPECT_EQ(ca.shed, cb.shed);
  EXPECT_EQ(ca.batches, cb.batches);
  EXPECT_EQ(ca.scored_rows, cb.scored_rows);
  EXPECT_EQ(ca.alarms_raised, cb.alarms_raised);
  EXPECT_EQ(ca.alarmed_hosts, cb.alarmed_hosts);
  EXPECT_EQ(ca.malware_hosts, cb.malware_hosts);
  EXPECT_EQ(ca.campaign_hosts, cb.campaign_hosts);
  EXPECT_EQ(ca.drift_checks, cb.drift_checks);
  EXPECT_EQ(ca.drift_triggers, cb.drift_triggers);
  EXPECT_EQ(ca.drift_trigger_tick, cb.drift_trigger_tick);
  EXPECT_EQ(ca.drift_tripped_shards, cb.drift_tripped_shards);
  EXPECT_EQ(ca.model_swaps, cb.model_swaps);
  EXPECT_EQ(ca.model_swap_tick, cb.model_swap_tick);
  EXPECT_EQ(ca.retrain_base_rows, cb.retrain_base_rows);
  EXPECT_EQ(ca.retrain_window_rows, cb.retrain_window_rows);
  EXPECT_EQ(ca.final_model_epoch, cb.final_model_epoch);
  EXPECT_EQ(ca.verdict_hash, cb.verdict_hash);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    const serve::ServeVerdict& va = a.verdicts[i];
    const serve::ServeVerdict& vb = b.verdicts[i];
    ASSERT_EQ(va.tick, vb.tick);
    ASSERT_EQ(va.host, vb.host);
    ASSERT_EQ(va.outcome, vb.outcome);
    ASSERT_EQ(va.alarm, vb.alarm);
    ASSERT_EQ(va.stale, vb.stale);
    // Exact bits, not a tolerance: the determinism contract holds straight
    // through the drift trigger and the mid-run hot-swap.
    ASSERT_EQ(std::bit_cast<std::uint64_t>(va.score),
              std::bit_cast<std::uint64_t>(vb.score));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(va.ewma),
              std::bit_cast<std::uint64_t>(vb.ewma));
  }
}

TEST(ServeDrift, TriggerRetrainAndSwapAreDeterministicAcrossThreads) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  const auto a = serve::run_fleet(fleet, drift_config());
  // 5 shards is a multiple of none of these worker counts, so workers own
  // unequal shard sets: the harvest order must follow the shards.
  for (const std::size_t workers : {2u, 3u, 4u}) {
    SCOPED_TRACE(workers);
    serve::ServeConfig cfg = drift_config();
    cfg.threads = workers;
    expect_same_reports(a, serve::run_fleet(fleet, cfg));
  }

  const serve::ServeCounters& c = a.counters;
  EXPECT_EQ(c.campaign_hosts, 15u);
  EXPECT_EQ(c.drift_checks, kTicks / 8);
  ASSERT_GE(c.drift_triggers, 1u);
  // The trigger lands on the first post-onset check boundary (the novel
  // family's scores shift the shard windows immediately).
  EXPECT_GE(c.drift_trigger_tick, kCampaignOnset);
  EXPECT_LE(c.drift_trigger_tick, kCampaignOnset + 15);
  EXPECT_GE(c.drift_tripped_shards, 2u);
  // Refresh: harvested, retrained, swapped at trigger + refresh_lag.
  EXPECT_EQ(c.model_swaps, 1u);
  EXPECT_EQ(c.model_swap_tick, c.drift_trigger_tick + 20);
  EXPECT_LT(c.model_swap_tick, kTicks);
  EXPECT_EQ(c.final_model_epoch, 1u);
  EXPECT_EQ(c.retrain_base_rows, 120u);  // the cached blobs split
  EXPECT_GT(c.retrain_window_rows, 0u);
  EXPECT_LE(c.retrain_window_rows, 256u);
  EXPECT_GT(a.timing.retrain_ms, 0.0);
}

// Golden rung for the adaptive run: the verdict stream, the trigger and
// swap ticks, and the refit model's score of every bank row, recorded
// values. Work on the retrain path (the refit learner, where the members
// run) must leave every one unchanged; the failure message prints the new
// value for a deliberate re-record.
TEST(ServeDrift, AdaptiveRunMatchesRecordedGoldens) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  const auto r = serve::run_fleet(fleet, drift_config());
  const serve::ServeCounters& c = r.counters;
  EXPECT_EQ(c.verdict_hash, 0x8cf3e4cf206a9a5fULL)
      << "verdict_hash: 0x" << std::hex << c.verdict_hash << "ULL";
  EXPECT_EQ(c.drift_trigger_tick, 55u);
  EXPECT_EQ(c.model_swap_tick, 75u);

  ASSERT_NE(r.refit_model, nullptr);
  std::vector<double> bank_scores;
  for (std::size_t at = 0; at < fleet.bank.size(); at += kFeat)
    bank_scores.push_back(r.refit_model->predict_proba(
        std::span<const double>(fleet.bank).subspan(at, kFeat)));
  const std::uint64_t bank_hash = testutil::fnv1a_bits(bank_scores);
  EXPECT_EQ(bank_hash, 0xd8e9ddeb5662eb65ULL)
      << "bank scores: 0x" << std::hex << bank_hash << "ULL";
}

TEST(ServeDrift, DetectionOnlyModeCountsTriggersButNeverSwaps) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  serve::ServeConfig cfg = drift_config();
  cfg.refresh.enabled = false;
  const auto r = serve::run_fleet(fleet, cfg);
  EXPECT_GE(r.counters.drift_triggers, 1u);
  EXPECT_GT(r.counters.drift_trigger_tick, 0u);
  EXPECT_EQ(r.counters.model_swaps, 0u);
  EXPECT_EQ(r.counters.model_swap_tick, 0u);
  EXPECT_EQ(r.counters.retrain_window_rows, 0u);
  EXPECT_EQ(r.counters.final_model_epoch, 0u);
}

TEST(ServeDrift, SwapPastEndOfRunIsSkippedAndStillJoinsTheRetrain) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  serve::ServeConfig cfg = drift_config();
  // Trigger ~tick 55 + 60 lands past tick 95: the retrain still runs (and
  // must be joined — this is the no-hang regression), but never installs.
  cfg.refresh.refresh_lag_ticks = 60;
  const auto r = serve::run_fleet(fleet, cfg);
  EXPECT_GE(r.counters.drift_triggers, 1u);
  EXPECT_EQ(r.counters.model_swaps, 0u);
  EXPECT_EQ(r.counters.final_model_epoch, 0u);
  EXPECT_GT(r.counters.retrain_window_rows, 0u);  // harvested + retrained
}

TEST(ServeDrift, FailedRetrainSurfacesFromRunFleet) {
  // No base split to refit from: retrain_model throws on the retrain
  // thread. The swap is skipped and run_fleet rethrows once every thread
  // has joined, instead of the process terminating.
  serve::FleetSetup fleet = drift_fleet();
  fleet.base_train = ml::Dataset();
  EXPECT_THROW(serve::run_fleet(fleet, drift_config()), PreconditionError);
}

TEST(ServeDrift, DriftDisabledLeavesDriftCountersZero) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  serve::ServeConfig cfg = drift_config();
  cfg.drift.enabled = false;
  const auto r = serve::run_fleet(fleet, cfg);
  EXPECT_EQ(r.counters.drift_checks, 0u);
  EXPECT_EQ(r.counters.drift_triggers, 0u);
  EXPECT_EQ(r.counters.model_swaps, 0u);
  EXPECT_EQ(r.counters.final_model_epoch, 0u);
  // The campaign itself still happens (it is fleet workload, not detector
  // state): novel-family hosts appear whether or not anyone watches.
  EXPECT_EQ(r.counters.campaign_hosts, 15u);
}

TEST(ServeDrift, WindowAccuracySplitsThePhases) {
  const serve::FleetSetup& fleet = shared_drift_fleet();
  const auto r = serve::run_fleet(fleet, drift_config());
  // Pre-onset the fleet is all-benign and quiet: near-perfect accuracy.
  const double pre =
      verdict_window_accuracy(fleet, r.verdicts, 8, kCampaignOnset);
  EXPECT_GT(pre, 0.95);
  // An empty window reports 0, not NaN.
  EXPECT_EQ(verdict_window_accuracy(fleet, r.verdicts, kTicks, kTicks), 0.0);
}

}  // namespace
}  // namespace hmd
