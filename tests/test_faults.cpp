// Tests for the fault-tolerant capture layer: deterministic fault
// injection (FaultInjector), retry/quarantine/backoff accounting,
// shortest-common-interval alignment, the saturation screen + imputation,
// graceful degradation under unavailable events, and the online detector's
// missing-sample / staleness behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "core/online.h"
#include "hpc/capture.h"
#include "hpc/container.h"
#include "hpc/faults.h"
#include "sim/workloads.h"
#include "support/check.h"

namespace hmd {
namespace {

sim::CorpusConfig tiny_corpus() {
  sim::CorpusConfig cfg;
  cfg.benign_per_template = 1;
  cfg.malware_per_template = 1;
  cfg.intervals_per_app = 6;
  return cfg;
}

hpc::FaultConfig moderate_faults(std::uint64_t seed = 3) {
  hpc::FaultConfig f;
  f.sample_drop_rate = 0.05;
  f.run_crash_rate = 0.05;
  f.counter_glitch_rate = 0.02;
  f.truncate_rate = 0.05;
  f.seed = seed;
  return f;
}

void expect_same_report(const hpc::CaptureReport& a,
                        const hpc::CaptureReport& b) {
  EXPECT_EQ(a.degraded_events, b.degraded_events);
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].attempts, b.apps[i].attempts) << "app " << i;
    EXPECT_EQ(a.apps[i].retries, b.apps[i].retries) << "app " << i;
    EXPECT_EQ(a.apps[i].crashes, b.apps[i].crashes) << "app " << i;
    EXPECT_EQ(a.apps[i].truncated_runs, b.apps[i].truncated_runs);
    EXPECT_EQ(a.apps[i].aligned_intervals, b.apps[i].aligned_intervals);
    EXPECT_EQ(a.apps[i].backoff_ms, b.apps[i].backoff_ms);
    EXPECT_EQ(a.apps[i].cells, b.apps[i].cells);
    EXPECT_EQ(a.apps[i].dropped_cells, b.apps[i].dropped_cells);
    EXPECT_EQ(a.apps[i].glitched_cells, b.apps[i].glitched_cells);
    EXPECT_EQ(a.apps[i].imputed_cells, b.apps[i].imputed_cells);
    EXPECT_EQ(a.apps[i].quarantined, b.apps[i].quarantined);
  }
}

// ---------------------------------------------------------------------------
// FaultConfig / profiles.

TEST(FaultProfiles, ParseAndNameRoundTrip) {
  for (const auto profile :
       {hpc::FaultProfile::kNone, hpc::FaultProfile::kLight,
        hpc::FaultProfile::kHeavy}) {
    const auto parsed =
        hpc::fault_profile_from_name(hpc::fault_profile_name(profile));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, profile);
  }
  EXPECT_FALSE(hpc::fault_profile_from_name("medium").has_value());
  EXPECT_FALSE(hpc::fault_profile_from_name("").has_value());
}

TEST(FaultProfiles, ProfilesAreOrderedAndSeeded) {
  const auto none = hpc::fault_profile(hpc::FaultProfile::kNone, 7);
  const auto light = hpc::fault_profile(hpc::FaultProfile::kLight, 7);
  const auto heavy = hpc::fault_profile(hpc::FaultProfile::kHeavy, 7);
  EXPECT_FALSE(none.any());
  EXPECT_TRUE(light.any());
  EXPECT_TRUE(heavy.any());
  EXPECT_GT(heavy.run_crash_rate, light.run_crash_rate);
  EXPECT_GT(heavy.sample_drop_rate, light.sample_drop_rate);
  EXPECT_FALSE(heavy.unavailable_events.empty());
  EXPECT_EQ(light.seed, 7u);
  EXPECT_EQ(hpc::describe_faults(none), "none");
  EXPECT_NE(hpc::describe_faults(heavy).find("unavailable"),
            std::string::npos);
}

TEST(FaultProfiles, UnavailableEventsAloneAreNotStochastic) {
  hpc::FaultConfig f;
  f.unavailable_events = {sim::Event::kBusCycles};
  EXPECT_FALSE(f.any());  // static capability, not a stochastic fault
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

TEST(FaultInjector, PlansArePureFunctionsOfSeedAppAndRunIndex) {
  const hpc::FaultInjector a(moderate_faults(11));
  const hpc::FaultInjector b(moderate_faults(11));
  for (std::uint32_t run = 0; run < 64; ++run) {
    const auto pa = a.plan_run(/*app_seed=*/42, run, /*intervals=*/20);
    const auto pb = b.plan_run(42, run, 20);
    EXPECT_EQ(pa.crash, pb.crash);
    EXPECT_EQ(pa.keep_intervals, pb.keep_intervals);
  }
  // A different fault seed must decorrelate the stream: at 5% crash over
  // 64 runs, two independent streams agreeing everywhere is (1-2pq)^64 —
  // astronomically unlikely to hold AND match truncation points too.
  const hpc::FaultInjector c(moderate_faults(12));
  bool all_equal = true;
  for (std::uint32_t run = 0; run < 256; ++run) {
    const auto pa = a.plan_run(42, run, 20);
    const auto pc = c.plan_run(42, run, 20);
    all_equal = all_equal && pa.crash == pc.crash &&
                pa.keep_intervals == pc.keep_intervals;
  }
  EXPECT_FALSE(all_equal);
}

TEST(FaultInjector, CrashRateOneAlwaysCrashes) {
  hpc::FaultConfig f;
  f.run_crash_rate = 1.0;
  const hpc::FaultInjector inj(f);
  for (std::uint32_t run = 0; run < 16; ++run)
    EXPECT_TRUE(inj.plan_run(1, run, 10).crash);
}

TEST(FaultInjector, TruncationPointStaysInRange) {
  hpc::FaultConfig f;
  f.truncate_rate = 1.0;
  const hpc::FaultInjector inj(f);
  for (std::uint32_t run = 0; run < 64; ++run) {
    const auto plan = inj.plan_run(5, run, 12);
    EXPECT_FALSE(plan.crash);
    ASSERT_NE(plan.keep_intervals, hpc::FaultInjector::kNoTruncation);
    EXPECT_GE(plan.keep_intervals, 1u);
    EXPECT_LE(plan.keep_intervals, 12u);
  }
}

TEST(FaultInjector, PerturbIsDeterministicAndMarksDrops) {
  hpc::FaultConfig f;
  f.sample_drop_rate = 0.3;
  f.counter_glitch_rate = 0.2;
  f.seed = 9;
  const hpc::FaultInjector inj(f);

  const auto make_trace = [] {
    hpc::RunTrace t;
    t.events = {sim::Event::kCpuCycles, sim::Event::kInstructions};
    t.samples.assign(10, std::vector<std::uint64_t>{100, 200});
    return t;
  };
  constexpr std::uint64_t kGlitch = 0xFFFFu;
  auto t1 = make_trace();
  auto t2 = make_trace();
  inj.perturb(t1, /*app_seed=*/77, /*run_index=*/3, kGlitch);
  inj.perturb(t2, 77, 3, kGlitch);
  EXPECT_EQ(t1.samples, t2.samples);
  EXPECT_EQ(t1.dropped, t2.dropped);

  ASSERT_EQ(t1.dropped.size(), t1.samples.size());
  std::size_t drops = 0, glitches = 0;
  for (std::size_t i = 0; i < t1.samples.size(); ++i)
    for (std::size_t j = 0; j < t1.samples[i].size(); ++j) {
      if (t1.dropped[i][j] != 0) ++drops;
      else if (t1.samples[i][j] == kGlitch) ++glitches;  // silent corruption
    }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(glitches, 0u);

  // A different run index must perturb differently.
  auto t3 = make_trace();
  inj.perturb(t3, 77, 4, kGlitch);
  EXPECT_TRUE(t3.samples != t1.samples || t3.dropped != t1.dropped);
}

TEST(Container, CrashedAttemptStillCountsInRunsExecuted) {
  hpc::FaultConfig f;
  f.run_crash_rate = 1.0;
  const hpc::FaultInjector inj(f);
  hpc::Container container({}, {}, &inj);
  const auto app = sim::make_benign(0, 0, 33, 4);
  EXPECT_THROW(
      container.run(app, 0, {sim::Event::kCpuCycles}),
      hpc::RunCrashError);
  EXPECT_EQ(container.runs_executed(), 1u);
}

TEST(Container, NullInjectorLeavesTraceClean) {
  hpc::Container container;
  const auto app = sim::make_benign(0, 0, 33, 4);
  const auto trace = container.run(app, 0, {sim::Event::kCpuCycles});
  EXPECT_TRUE(trace.dropped.empty());
  EXPECT_FALSE(trace.truncated);
  EXPECT_EQ(trace.samples.size(), app.intervals);
}

// ---------------------------------------------------------------------------
// Faulted capture: determinism, zero cost, accounting, screening.

TEST(FaultedCapture, BitIdenticalAcrossThreadCounts) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig serial_cfg;
  serial_cfg.faults = moderate_faults();
  serial_cfg.threads = 1;
  hpc::CaptureConfig parallel_cfg = serial_cfg;
  parallel_cfg.threads = 4;

  const auto serial = hpc::capture_all_events(corpus, serial_cfg);
  const auto parallel = hpc::capture_all_events(corpus, parallel_cfg);
  EXPECT_EQ(serial.feature_names, parallel.feature_names);
  EXPECT_EQ(serial.labels, parallel.labels);
  EXPECT_EQ(serial.row_app, parallel.row_app);
  EXPECT_EQ(serial.total_runs, parallel.total_runs);
  EXPECT_EQ(serial.rows, parallel.rows);  // exact doubles, no tolerance
  expect_same_report(serial.report, parallel.report);
}

TEST(FaultedCapture, AllZeroRatesAreByteIdenticalToCleanCapture) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  const auto clean = hpc::capture_all_events(corpus, {});
  hpc::CaptureConfig zero_cfg;
  zero_cfg.faults.seed = 123;  // seed without rates must change nothing
  const auto zero = hpc::capture_all_events(corpus, zero_cfg);

  EXPECT_EQ(clean.rows, zero.rows);
  EXPECT_EQ(clean.total_runs, zero.total_runs);
  EXPECT_EQ(zero.report.total_retries(), 0u);
  EXPECT_EQ(zero.report.total_crashes(), 0u);
  EXPECT_EQ(zero.report.quarantined_apps(), 0u);
  EXPECT_EQ(zero.report.total_imputed_cells(), 0u);
  EXPECT_EQ(zero.report.total_backoff_ms(), 0u);
  EXPECT_TRUE(zero.report.degraded_events.empty());
}

TEST(FaultedCapture, RetryAndBackoffAccountingStaysHonest) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults = moderate_faults(5);
  const auto capture = hpc::capture_all_events(corpus, cfg);

  // total_runs is the honest protocol cost: every attempt, incl. retries.
  std::uint64_t ledger = 0;
  for (const auto& app : capture.report.apps) ledger += app.attempts;
  EXPECT_EQ(capture.total_runs, ledger);
  EXPECT_GT(capture.report.total_crashes(), 0u);
  EXPECT_GE(capture.report.total_retries(), capture.report.total_crashes());
  // Backoff is accounted per retry, capped 10..80 ms.
  EXPECT_GE(capture.report.total_backoff_ms(),
            10u * capture.report.total_retries());
  EXPECT_LE(capture.report.total_backoff_ms(),
            80u * capture.report.total_retries());
}

TEST(FaultedCapture, PersistentCrashQuarantinesEveryAppAndThrows) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults.run_crash_rate = 1.0;
  EXPECT_THROW(hpc::capture_all_events(corpus, cfg), hpc::CaptureError);
}

TEST(FaultedCapture, TruncationShortensAppsToCommonInterval) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults.truncate_rate = 0.6;  // frequent, but >= min_run_fraction often
  cfg.faults.seed = 2;
  const auto capture = hpc::capture_all_events(corpus, cfg);

  const auto& report = capture.report;
  EXPECT_GT(std::accumulate(
                report.apps.begin(), report.apps.end(), std::uint64_t{0},
                [](std::uint64_t acc, const hpc::AppCaptureReport& app) {
                  return acc + app.truncated_runs;
                }),
            0u);
  // Per app: rows kept == aligned_intervals <= the app's interval count.
  std::vector<std::size_t> rows_per_app(capture.app_names.size(), 0);
  for (std::size_t app : capture.row_app) ++rows_per_app[app];
  for (std::size_t a = 0; a < report.apps.size(); ++a) {
    if (report.apps[a].quarantined) {
      EXPECT_EQ(rows_per_app[a], 0u);
      continue;
    }
    EXPECT_EQ(rows_per_app[a], report.apps[a].aligned_intervals);
    EXPECT_LE(report.apps[a].aligned_intervals, corpus[a].intervals);
    EXPECT_GE(report.apps[a].aligned_intervals, 1u);
  }
}

TEST(FaultedCapture, ScreenAndImputationLeaveNoHolesOrSaturation) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults.sample_drop_rate = 0.10;
  cfg.faults.counter_glitch_rate = 0.10;
  cfg.faults.seed = 4;
  const auto capture = hpc::capture_all_events(corpus, cfg);

  EXPECT_GT(capture.report.total_imputed_cells(), 0u);
  const double saturation =
      static_cast<double>((std::uint64_t{1} << 48) - 1);  // default 48 bits
  for (const auto& row : capture.rows)
    for (double v : row) {
      EXPECT_TRUE(std::isfinite(v));     // every hole was imputed
      EXPECT_LT(v, saturation * 0.5);    // every glitch was screened
    }
  // Accounting: imputed == dropped + glitched, and within the lint budget
  // shape (fractions in [0, 1]).
  std::size_t dropped = 0, glitched = 0;
  for (const auto& app : capture.report.apps) {
    dropped += app.dropped_cells;
    glitched += app.glitched_cells;
    EXPECT_EQ(app.imputed_cells, app.dropped_cells + app.glitched_cells);
  }
  EXPECT_EQ(capture.report.total_imputed_cells(), dropped + glitched);
  EXPECT_GE(capture.report.imputed_fraction(), 0.0);
  EXPECT_LE(capture.report.imputed_fraction(), 1.0);
}

TEST(FaultedCapture, StochasticFaultsRequireMultiRunProtocol) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults = moderate_faults();
  cfg.protocol = hpc::CaptureProtocol::kOracle;
  EXPECT_THROW(hpc::capture_all_events(corpus, cfg), PreconditionError);
}

TEST(FaultedCapture, RejectsOutOfRangeMinRunFraction) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.min_run_fraction = 1.5;
  EXPECT_THROW(hpc::capture_all_events(corpus, cfg), PreconditionError);
}

// ---------------------------------------------------------------------------
// Graceful degradation: unavailable events.

TEST(DegradedCapture, UnavailableEventsAreDroppedAndReported) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults.unavailable_events = {sim::Event::kBusCycles,
                                   sim::Event::kNodePrefetchMisses};
  const auto capture = hpc::capture_all_events(corpus, cfg);

  EXPECT_EQ(capture.num_features(), sim::all_events().size() - 2);
  ASSERT_EQ(capture.report.degraded_events.size(), 2u);
  EXPECT_EQ(capture.report.degraded_events[0],
            sim::event_name(sim::Event::kBusCycles));
  for (const auto& name : capture.feature_names) {
    EXPECT_NE(name, sim::event_name(sim::Event::kBusCycles));
    EXPECT_NE(name, sim::event_name(sim::Event::kNodePrefetchMisses));
  }
}

TEST(DegradedCapture, EveryEventUnavailableIsFatal) {
  const auto corpus = sim::build_corpus(tiny_corpus());
  hpc::CaptureConfig cfg;
  cfg.faults.unavailable_events.assign(sim::all_events().begin(),
                                       sim::all_events().end());
  EXPECT_THROW(hpc::capture_all_events(corpus, cfg), PreconditionError);
}

TEST(Pmu, ProgrammingAnUnavailableEventThrows) {
  hpc::PmuConfig cfg;
  cfg.unavailable_events = {sim::Event::kBusCycles};
  hpc::Pmu pmu(cfg);
  EXPECT_FALSE(pmu.event_available(sim::Event::kBusCycles));
  EXPECT_TRUE(pmu.event_available(sim::Event::kCpuCycles));
  EXPECT_THROW(pmu.program({sim::Event::kBusCycles}), PreconditionError);
}

// ---------------------------------------------------------------------------
// Online detector: missing samples, staleness watchdog, degraded subset.

/// Deterministic stand-in model: P(malware) rises with instruction count.
class FixedScorer : public ml::Classifier {
 public:
  void train(const ml::Dataset&) override {}
  double predict_proba(std::span<const double> x) const override {
    return std::clamp(x[0] / 1000.0, 0.0, 1.0);
  }
  std::unique_ptr<ml::Classifier> clone_untrained() const override {
    return std::make_unique<FixedScorer>();
  }
  std::string name() const override { return "Fixed"; }
};

sim::EventCounts counts_with_instructions(std::uint64_t n) {
  sim::EventCounts c{};
  c[sim::Event::kInstructions] = n;
  return c;
}

core::OnlineConfig sharp_online() {
  core::OnlineConfig cfg;
  cfg.ewma_alpha = 1.0;
  cfg.warmup_intervals = 0;
  cfg.max_stale_intervals = 3;
  return cfg;
}

TEST(OnlineFaults, MissingSamplesHoldEwmaAndAlarm) {
  core::OnlineDetector det(std::make_shared<FixedScorer>(),
                           {sim::Event::kInstructions}, hpc::PmuConfig{},
                           sharp_online());
  const auto alarmed = det.observe(counts_with_instructions(900));  // 0.9
  EXPECT_TRUE(alarmed.alarm);

  // The collector hiccups: the alarm must neither crash nor clear.
  for (std::size_t i = 0; i < 3; ++i) {
    const auto held = det.observe_missing();
    EXPECT_TRUE(held.alarm);
    EXPECT_DOUBLE_EQ(held.ewma, alarmed.ewma);
    EXPECT_FALSE(held.stale) << "within the watchdog window at miss " << i;
  }
  // One more miss exceeds max_stale_intervals = 3: flagged, still alarmed.
  const auto stale = det.observe_missing();
  EXPECT_TRUE(stale.stale);
  EXPECT_TRUE(stale.alarm);
  EXPECT_EQ(det.missing_streak(), 4u);

  // A real sample resets the watchdog.
  const auto fresh = det.observe(counts_with_instructions(100));
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(det.missing_streak(), 0u);
  EXPECT_FALSE(fresh.alarm);  // 0.1 < alarm_off
}

TEST(OnlineFaults, ResetClearsStaleness) {
  core::OnlineDetector det(std::make_shared<FixedScorer>(),
                           {sim::Event::kInstructions}, hpc::PmuConfig{},
                           sharp_online());
  det.observe(counts_with_instructions(900));
  for (std::size_t i = 0; i < 5; ++i) det.observe_missing();
  EXPECT_TRUE(det.stale());
  det.reset();
  EXPECT_FALSE(det.stale());
  EXPECT_EQ(det.missing_streak(), 0u);
}

TEST(OnlineFaults, UnavailableEventDegradesToActiveSubset) {
  hpc::PmuConfig pmu;
  pmu.unavailable_events = {sim::Event::kCacheMisses};
  core::OnlineDetector det(
      std::make_shared<FixedScorer>(),
      {sim::Event::kInstructions, sim::Event::kCacheMisses}, pmu,
      sharp_online());

  EXPECT_TRUE(det.degraded());
  ASSERT_EQ(det.active_events().size(), 1u);
  EXPECT_EQ(det.active_events()[0], sim::Event::kInstructions);

  // The detector still scores (the missing feature feeds its held 0) and
  // every verdict carries the degraded flag.
  const auto v = det.observe(counts_with_instructions(900));
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.alarm);  // feature 0 alone drives FixedScorer
}

TEST(OnlineFaults, AllEventsUnavailableIsFatal) {
  hpc::PmuConfig pmu;
  pmu.unavailable_events = {sim::Event::kInstructions};
  EXPECT_THROW(core::OnlineDetector(std::make_shared<FixedScorer>(),
                                    {sim::Event::kInstructions}, pmu),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Online detector: recovery transitions (stale -> healthy, degraded ->
// healthy). Entering the degraded/stale states is covered above; these
// prove the way *back* keeps the EWMA, alarm, and held state honest.

TEST(OnlineRecovery, StaleToHealthyKeepsEwmaAcrossTheGap) {
  core::OnlineConfig cfg = sharp_online();
  cfg.ewma_alpha = 0.5;  // partial smoothing, so the gap is observable
  core::OnlineDetector det(std::make_shared<FixedScorer>(),
                           {sim::Event::kInstructions}, hpc::PmuConfig{},
                           cfg);

  const auto before = det.observe(counts_with_instructions(900));  // 0.9
  EXPECT_DOUBLE_EQ(before.ewma, 0.9);  // first sample initialises the EWMA
  EXPECT_TRUE(before.alarm);

  // Past the watchdog: verdicts go stale but hold the last trusted state.
  for (std::size_t i = 0; i < 4; ++i) det.observe_missing();
  EXPECT_TRUE(det.stale());
  EXPECT_TRUE(det.alarmed());

  // Counters return. The recovery verdict must not be stale, and its EWMA
  // must blend the new score into the *held* pre-gap state — 0.5·0.1 +
  // 0.5·0.9 — not restart from the new score (which would be 0.1).
  const auto recovered = det.observe(counts_with_instructions(100));
  EXPECT_FALSE(recovered.stale);
  EXPECT_EQ(det.missing_streak(), 0u);
  EXPECT_DOUBLE_EQ(recovered.ewma, 0.5 * 0.1 + 0.5 * 0.9);
  EXPECT_TRUE(recovered.alarm);  // 0.5 is above alarm_off = 0.4: no clear

  // A healthy run of low scores decays the EWMA and clears the alarm
  // through the normal hysteresis, not through the recovery itself.
  const auto settled = det.observe(counts_with_instructions(100));
  EXPECT_FALSE(settled.stale);
  EXPECT_DOUBLE_EQ(settled.ewma, 0.5 * 0.1 + 0.5 * recovered.ewma);
  EXPECT_FALSE(settled.alarm);  // 0.3 <= alarm_off
}

/// Two-feature scorer, so a held (degraded) feature visibly changes the
/// score: P = clamp((x0 + x1) / 2000).
class MeanScorer : public ml::Classifier {
 public:
  void train(const ml::Dataset&) override {}
  double predict_proba(std::span<const double> x) const override {
    return std::clamp((x[0] + x[1]) / 2000.0, 0.0, 1.0);
  }
  std::unique_ptr<ml::Classifier> clone_untrained() const override {
    return std::make_unique<MeanScorer>();
  }
  std::string name() const override { return "Mean"; }
};

TEST(OnlineRecovery, DegradedToHealthyViaReprogramKeepsAlarmAndEwma) {
  core::OnlineConfig cfg = sharp_online();
  cfg.ewma_alpha = 0.5;
  hpc::PmuConfig broken;
  broken.unavailable_events = {sim::Event::kCacheMisses};
  core::OnlineDetector det(
      std::make_shared<MeanScorer>(),
      {sim::Event::kInstructions, sim::Event::kCacheMisses}, broken, cfg);
  EXPECT_TRUE(det.degraded());

  // Degraded: the unavailable feature feeds its held 0, so 1800 alone
  // scores 0.9, raising the alarm.
  sim::EventCounts counts = counts_with_instructions(1800);
  counts[sim::Event::kCacheMisses] = 1800;
  const auto degraded = det.observe(counts);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_DOUBLE_EQ(degraded.score, 0.9);
  EXPECT_TRUE(degraded.alarm);

  // The counter comes back (collector restart): re-probe and reprogram.
  det.reprogram(hpc::PmuConfig{});
  EXPECT_FALSE(det.degraded());
  ASSERT_EQ(det.active_events().size(), 2u);

  // Recovery must carry the alarm and EWMA across the transition, and the
  // first healthy sample refreshes the previously-held feature: both
  // events now contribute, scoring (400 + 400) / 2000 = 0.4.
  EXPECT_TRUE(det.alarmed());
  sim::EventCounts healthy = counts_with_instructions(400);
  healthy[sim::Event::kCacheMisses] = 400;
  const auto recovered = det.observe(healthy);
  EXPECT_FALSE(recovered.degraded);
  EXPECT_DOUBLE_EQ(recovered.score, 0.4);
  EXPECT_DOUBLE_EQ(recovered.ewma, 0.5 * 0.4 + 0.5 * 0.9);
  EXPECT_TRUE(recovered.alarm);  // 0.65 is still above alarm_off

  const auto cleared = det.observe(counts_with_instructions(0));
  EXPECT_DOUBLE_EQ(cleared.ewma, 0.5 * 0.0 + 0.5 * recovered.ewma);
  EXPECT_FALSE(cleared.alarm);  // 0.325 <= alarm_off = 0.4
}

TEST(OnlineRecovery, ReprogramToNoAvailableEventsIsFatal) {
  core::OnlineDetector det(std::make_shared<FixedScorer>(),
                           {sim::Event::kInstructions}, hpc::PmuConfig{},
                           sharp_online());
  hpc::PmuConfig dead;
  dead.unavailable_events = {sim::Event::kInstructions};
  EXPECT_THROW(det.reprogram(dead), PreconditionError);
}

}  // namespace
}  // namespace hmd
