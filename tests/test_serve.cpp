// Tests for the fleet serving layer (src/serve): token-bucket admission,
// the P² streaming quantile estimator against a sorted reference, the
// OnlineState automaton, and — the core contract — run_fleet determinism:
// verdict streams and counters bit-identical across worker counts, batched
// vs unbatched scoring, and hedging/straggler injection on or off.
//
// This translation unit also replaces the global operator new/delete with
// counting versions, which backs the no-allocation assertion on the
// steady-state OnlineDetector::observe() path (DESIGN §15: per-interval
// scoring must not churn the heap at fleet rates).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/online.h"
#include "ml/classifier.h"
#include "ml/infer.h"
#include "serve/controller.h"
#include "serve/fleet.h"
#include "serve/quantile.h"
#include "serve/token_bucket.h"
#include "sim/events.h"
#include "support/rng.h"
#include "test_util.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Counting replacements for the default-aligned global allocator. Only the
// unaligned forms are replaced; over-aligned allocations keep the library
// defaults (nothing on the observe() path is over-aligned). The replaced
// pairs are malloc/free-based throughout, so the mismatch warning (which
// assumes the defaults) does not apply.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too: std::stable_sort's temporary buffer comes from
// nothrow new and goes back through the sized delete below.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hmd {
namespace {

// ---------------------------------------------------------------------------
// TokenBucket: integer tokens on the virtual tick clock.

TEST(TokenBucket, StartsFullAndGrantsUpToCapacity) {
  serve::TokenBucket bucket(10, 3);
  EXPECT_EQ(bucket.tokens(), 10u);
  EXPECT_EQ(bucket.take(4), 4u);
  EXPECT_EQ(bucket.tokens(), 6u);
  EXPECT_EQ(bucket.take(6), 6u);
  EXPECT_EQ(bucket.tokens(), 0u);
  EXPECT_EQ(bucket.shed(), 0u);
}

TEST(TokenBucket, PartialGrantShedsTheRemainder) {
  serve::TokenBucket bucket = serve::TokenBucket::burst_only(5);
  EXPECT_EQ(bucket.take(8), 5u);  // grants what it holds, sheds 3
  EXPECT_EQ(bucket.take(2), 0u);  // empty: everything shed
  EXPECT_EQ(bucket.offered(), 10u);
  EXPECT_EQ(bucket.granted(), 5u);
  EXPECT_EQ(bucket.shed(), 5u);
  EXPECT_EQ(bucket.offered(), bucket.granted() + bucket.shed());
}

TEST(TokenBucket, RefillSaturatesAtCapacity) {
  serve::TokenBucket bucket(6, 4);
  EXPECT_EQ(bucket.take(6), 6u);
  bucket.refill();
  EXPECT_EQ(bucket.tokens(), 4u);
  bucket.refill();
  EXPECT_EQ(bucket.tokens(), 6u);  // 4 + 4 clamps to capacity
  bucket.refill();
  EXPECT_EQ(bucket.tokens(), 6u);
}

TEST(TokenBucket, ZeroRefillNeverRecovers) {
  // burst_only is the explicit opt-in for the drain-then-starve shape.
  serve::TokenBucket bucket = serve::TokenBucket::burst_only(3);
  EXPECT_EQ(bucket.take(3), 3u);
  bucket.refill();
  EXPECT_EQ(bucket.tokens(), 0u);
  EXPECT_EQ(bucket.take(1), 0u);
  EXPECT_EQ(bucket.shed(), 1u);
}

TEST(TokenBucket, RejectsAccidentalZeroRefill) {
  // Regression: TokenBucket(cap, 0) used to be accepted and silently shed
  // ALL traffic once the initial burst was spent — a rate that integer-
  // rounded to zero starved the fleet with no diagnostic.
  EXPECT_THROW(serve::TokenBucket(5, 0), PreconditionError);
}

TEST(TokenBucket, BurstOnlyShedLedgerStaysHonest) {
  // Regression companion to RejectsAccidentalZeroRefill: the documented
  // zero-refill mode must keep offered == granted + shed forever, so the
  // starvation is visible in the ledger rather than silent.
  serve::TokenBucket bucket = serve::TokenBucket::burst_only(4);
  EXPECT_EQ(bucket.take(6), 4u);  // burst grants 4, sheds 2
  for (int tick = 0; tick < 5; ++tick) {
    bucket.refill();               // refills nothing by design
    EXPECT_EQ(bucket.take(3), 0u);
  }
  EXPECT_EQ(bucket.offered(), 6u + 5u * 3u);
  EXPECT_EQ(bucket.granted(), 4u);
  EXPECT_EQ(bucket.shed(), 2u + 5u * 3u);
  EXPECT_EQ(bucket.offered(), bucket.granted() + bucket.shed());
}

TEST(TokenBucket, SteadyStateAdmitsExactlyTheRefillRate) {
  serve::TokenBucket bucket(20, 7);
  (void)bucket.take(20);  // drain the initial burst
  for (int tick = 0; tick < 50; ++tick) {
    bucket.refill();
    EXPECT_EQ(bucket.take(12), 7u);  // offered 12/tick, sustained 7/tick
  }
  EXPECT_EQ(bucket.granted(), 20u + 50u * 7u);
  EXPECT_EQ(bucket.shed(), 50u * 5u);
}

// ---------------------------------------------------------------------------
// QuantileEstimator: P² against a sorted reference.

double nearest_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(rank + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

TEST(QuantileEstimator, ExactBelowFiveSamples) {
  serve::QuantileEstimator median(0.5);
  EXPECT_EQ(median.estimate(), 0.0);  // no observations yet
  median.add(5.0);
  EXPECT_EQ(median.estimate(), 5.0);
  median.add(1.0);
  median.add(3.0);
  EXPECT_EQ(median.estimate(), 3.0);  // exact: sorted {1,3,5}

  serve::QuantileEstimator tail(0.99);
  tail.add(2.0);
  tail.add(9.0);
  tail.add(4.0);
  EXPECT_EQ(tail.estimate(), 9.0);  // p99 of 3 samples = max
}

TEST(QuantileEstimator, SmallSampleConventionLocked) {
  // Pin the documented small-sample convention: nearest-rank on the
  // 0-based rank q*(count-1), exact-half ranks rounding UP to the upper
  // element. Checked for q in {0.5, 0.95, 0.99} at every bootstrap count
  // 1..4 against the shared sorted-reference helper, on values inserted
  // out of order so the sorted-prefix bookkeeping is exercised too.
  const std::vector<double> stream = {7.0, 1.0, 9.0, 4.0};
  for (const double q : {0.5, 0.95, 0.99}) {
    serve::QuantileEstimator est(q);
    std::vector<double> seen;
    for (std::size_t n = 0; n < stream.size(); ++n) {
      est.add(stream[n]);
      seen.push_back(stream[n]);
      EXPECT_EQ(est.count(), n + 1);
      EXPECT_EQ(est.estimate(), nearest_rank(seen, q))
          << "q=" << q << " count=" << n + 1;
    }
  }
  // The half-rank tie-break itself, spelled out: the median of two
  // elements sits at rank 0.5 and must resolve to the UPPER one.
  serve::QuantileEstimator median(0.5);
  median.add(10.0);
  median.add(2.0);
  EXPECT_EQ(median.estimate(), 10.0);  // sorted {2,10}: upper element
  // And at count 3 the p95/p99 rank rounds up to the max.
  serve::QuantileEstimator p95(0.95);
  p95.add(3.0);
  p95.add(8.0);
  EXPECT_EQ(p95.estimate(), 8.0);  // rank 0.95 -> upper of {3,8}
}

TEST(QuantileEstimator, ConstantStreamKeepsMarkersDegenerate) {
  // All-equal samples: every marker height must collapse to the one value
  // and stay there — the parabolic step must never fabricate spread.
  serve::QuantileEstimator p99(0.99);
  for (int i = 0; i < 2000; ++i) {
    p99.add(42.0);
    EXPECT_EQ(p99.estimate(), 42.0);
  }
  for (const double h : p99.marker_heights()) EXPECT_EQ(h, 42.0);
}

TEST(QuantileEstimator, DuplicateHeavyStreamPreservesMarkerOrdering) {
  // Long runs of a single value interleaved with rare outliers create the
  // zero-width cells (height[k] == height[k+1]) that the marker-adjustment
  // step must survive: heights must stay sorted and the estimate bounded
  // by the observed range. The seeded-uniform tests never stress this.
  Rng rng(1234);
  for (const double q : {0.5, 0.95, 0.99}) {
    serve::QuantileEstimator est(q);
    double lo = 1e300, hi = -1e300;
    for (int i = 0; i < 5000; ++i) {
      // ~90% of samples are one of two duplicated plateau values.
      const double u = rng.uniform();
      const double x = u < 0.45 ? 5.0 : (u < 0.90 ? 7.0 : rng.uniform() * 100.0);
      est.add(x);
      lo = std::min(lo, x);
      hi = std::max(hi, x);
      const auto& h = est.marker_heights();
      if (est.count() >= 5) {
        for (std::size_t k = 0; k + 1 < h.size(); ++k)
          ASSERT_LE(h[k], h[k + 1]) << "marker ordering broke at i=" << i;
        ASSERT_GE(est.estimate(), lo);
        ASSERT_LE(est.estimate(), hi);
      }
    }
  }
}

TEST(QuantileEstimator, LongRunOfOneValueThenShiftRecovers) {
  // A constant prefix pins all five markers to one height; the estimator
  // must still move once the stream shifts (duplicate cells must not trap
  // the interior markers forever).
  serve::QuantileEstimator p50(0.5);
  for (int i = 0; i < 1000; ++i) p50.add(1.0);
  EXPECT_EQ(p50.estimate(), 1.0);
  for (int i = 0; i < 4000; ++i) p50.add(9.0);
  // 4000 of 5000 samples are 9.0: the median must have left the plateau.
  EXPECT_GT(p50.estimate(), 1.0);
  const auto& h = p50.marker_heights();
  for (std::size_t k = 0; k + 1 < h.size(); ++k) EXPECT_LE(h[k], h[k + 1]);
}

TEST(QuantileEstimator, TracksUniformStreamAgainstSortedReference) {
  Rng rng(41);
  std::vector<double> values;
  serve::QuantileEstimator p50(0.50), p95(0.95), p99(0.99);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform();
    values.push_back(x);
    p50.add(x);
    p95.add(x);
    p99.add(x);
  }
  EXPECT_EQ(p50.count(), 5000u);
  EXPECT_NEAR(p50.estimate(), nearest_rank(values, 0.50), 0.03);
  EXPECT_NEAR(p95.estimate(), nearest_rank(values, 0.95), 0.03);
  EXPECT_NEAR(p99.estimate(), nearest_rank(values, 0.99), 0.03);
}

TEST(QuantileEstimator, TracksSkewedStreamAgainstSortedReference) {
  // Latencies are log-normal-ish: heavy right tail, exactly what P² must
  // not be fooled by.
  Rng rng(77);
  std::vector<double> values;
  serve::QuantileEstimator p50(0.50), p99(0.99);
  for (int i = 0; i < 8000; ++i) {
    const double x = rng.lognormal(3.0, 0.6);  // ~20 us median
    values.push_back(x);
    p50.add(x);
    p99.add(x);
  }
  const double ref50 = nearest_rank(values, 0.50);
  const double ref99 = nearest_rank(values, 0.99);
  EXPECT_NEAR(p50.estimate(), ref50, 0.10 * ref50);
  EXPECT_NEAR(p99.estimate(), ref99, 0.15 * ref99);
  EXPECT_GT(p99.estimate(), p50.estimate());
}

TEST(QuantileEstimator, IsAPureFunctionOfTheObservationSequence) {
  Rng rng(9);
  std::vector<double> stream;
  for (int i = 0; i < 1000; ++i) stream.push_back(rng.lognormal(2.0, 1.0));
  serve::QuantileEstimator a(0.95), b(0.95);
  for (double x : stream) a.add(x);
  for (double x : stream) b.add(x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.estimate()),
            std::bit_cast<std::uint64_t>(b.estimate()));
}

TEST(LatencyStats, MeanMaxCountAndOrderedQuantiles) {
  serve::LatencyStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
  EXPECT_NEAR(s.p50(), 50.0, 3.0);
  EXPECT_NEAR(s.p99(), 99.0, 3.0);
}

// ---------------------------------------------------------------------------
// OnlineState: the batch-steppable EWMA/alarm/staleness automaton.

TEST(OnlineState, AlarmRaisesWithHysteresis) {
  core::OnlineConfig cfg;  // alpha .35, on .60, off .40, warmup 1
  core::OnlineState st;
  auto v = st.step_score(cfg, 0.9);  // warmup interval: no EWMA yet
  EXPECT_EQ(v.interval, 0u);
  EXPECT_FALSE(v.alarm);
  v = st.step_score(cfg, 0.9);  // first real sample seeds the EWMA
  EXPECT_DOUBLE_EQ(v.ewma, 0.9);
  EXPECT_TRUE(v.alarm);
  // Hysteresis: one low sample pulls the EWMA below alarm_on but not
  // below alarm_off — the alarm must hold.
  v = st.step_score(cfg, 0.0);
  EXPECT_DOUBLE_EQ(v.ewma, 0.65 * 0.9);
  EXPECT_GT(v.ewma, cfg.alarm_off);
  EXPECT_TRUE(v.alarm);
  // Keep feeding zeros: once the EWMA crosses alarm_off it clears.
  while (v.ewma > cfg.alarm_off) v = st.step_score(cfg, 0.0);
  EXPECT_FALSE(v.alarm);
}

TEST(OnlineState, MissingStepsHoldStateAndTrackStaleness) {
  core::OnlineConfig cfg;
  cfg.warmup_intervals = 0;
  core::OnlineState st;
  auto v = st.step_score(cfg, 0.8);
  EXPECT_TRUE(st.alarmed());
  for (std::size_t k = 1; k <= cfg.max_stale_intervals; ++k) {
    v = st.step_missing(cfg);
    EXPECT_DOUBLE_EQ(v.ewma, 0.8);  // held, not decayed
    EXPECT_TRUE(v.alarm);           // a dropped sample never clears an alarm
    EXPECT_FALSE(v.stale);
    EXPECT_EQ(st.missing_streak(), k);
  }
  v = st.step_missing(cfg);  // one past the watchdog limit
  EXPECT_TRUE(v.stale);
  EXPECT_TRUE(v.alarm);
  // A real sample refreshes the streak and clears staleness.
  v = st.step_score(cfg, 0.8);
  EXPECT_EQ(st.missing_streak(), 0u);
  EXPECT_FALSE(st.stale(cfg));
}

TEST(OnlineState, MissingStepsHoldTheSuspectFlag) {
  // Regression: step_missing used to drop `suspect` while holding the
  // EWMA and alarm, so a margin-gated host read as confidently clean the
  // moment one sample was lost. Timeline: suspect -> missing -> suspect.
  core::OnlineConfig cfg;
  cfg.warmup_intervals = 0;
  core::OnlineState st;
  auto v = st.step_score(cfg, 0.7, /*degraded=*/false, /*suspect=*/true);
  EXPECT_TRUE(v.suspect);
  v = st.step_missing(cfg);
  EXPECT_TRUE(v.suspect) << "held verdict must keep the suspicion";
  EXPECT_DOUBLE_EQ(v.ewma, 0.7);  // EWMA held alongside, as before
  v = st.step_missing(cfg);
  EXPECT_TRUE(v.suspect);  // holds across a streak, like alarm_
  v = st.step_score(cfg, 0.7, false, /*suspect=*/true);
  EXPECT_TRUE(v.suspect);
  // A clean real sample clears it — and a following missing step now
  // holds the cleared state, not a stale suspicion.
  v = st.step_score(cfg, 0.7, false, /*suspect=*/false);
  EXPECT_FALSE(v.suspect);
  v = st.step_missing(cfg);
  EXPECT_FALSE(v.suspect);
  // reset() restores the cold-start (not-suspect) state.
  st.step_score(cfg, 0.7, false, true);
  st.reset();
  v = st.step_missing(cfg);
  EXPECT_FALSE(v.suspect);
}

TEST(OnlineState, ResetRestoresColdStart) {
  core::OnlineConfig cfg;
  cfg.warmup_intervals = 0;
  core::OnlineState st;
  st.step_score(cfg, 1.0);
  st.step_missing(cfg);
  EXPECT_TRUE(st.alarmed());
  st.reset();
  EXPECT_FALSE(st.alarmed());
  EXPECT_EQ(st.intervals(), 0u);
  EXPECT_EQ(st.missing_streak(), 0u);
  const auto v = st.step_score(cfg, 0.0);
  EXPECT_EQ(v.interval, 0u);
  EXPECT_DOUBLE_EQ(v.ewma, 0.0);
}

// ---------------------------------------------------------------------------
// run_fleet determinism on a synthetic fleet.
//
// make_fleet's offline phase (feature study + deployment training) costs
// seconds; the pipeline contract doesn't care where the bank came from. So
// these tests hand-build a FleetSetup around a small trained ensemble:
// app 0 replays rows near the benign blob centre (-2), app 1 near the
// malware centre (+2), so scores are unambiguous and alarm behaviour is a
// ground-truth assertion rather than a statistical one.

constexpr std::size_t kSynFeatures = 4;   // 3 informative + 1 noise column
constexpr std::size_t kSynRowsPerApp = 6;

serve::FleetSetup synthetic_fleet(std::size_t hosts, std::uint32_t ticks) {
  serve::FleetSetup f;
  f.cfg.hosts = hosts;
  f.cfg.ticks = ticks;
  f.cfg.seed = 321;
  f.cfg.drop_rate = 0.04;
  f.cfg.scale_sigma = 0.05;

  auto clf = ml::make_detector(ml::ClassifierKind::kJRip,
                               ml::EnsembleKind::kBagging, 7);
  clf->train(testutil::gaussian_blobs(60, 3, 1, 0.8, 11));
  f.model = std::move(clf);
  f.backend = ml::make_active_backend(*f.model);
  f.events = {sim::Event::kCpuCycles, sim::Event::kInstructions,
              sim::Event::kCacheMisses, sim::Event::kBranchMisses};
  f.num_features = kSynFeatures;

  Rng rng(99);
  for (int app = 0; app < 2; ++app) {
    f.app_begin.push_back(f.bank.size() / kSynFeatures);
    f.app_rows.push_back(kSynRowsPerApp);
    f.app_labels.push_back(app);
    const double centre = app == 0 ? -2.0 : 2.0;
    for (std::size_t r = 0; r < kSynRowsPerApp; ++r)
      for (std::size_t j = 0; j < kSynFeatures; ++j)
        f.bank.push_back(j < 3 ? centre + 0.4 * (rng.uniform() - 0.5) : 0.1);
  }

  for (std::size_t h = 0; h < hosts; ++h) {
    serve::HostProfile p;
    p.benign_app = 0;
    p.malware_app = 1;
    p.is_malware = h % 3 == 0;
    p.onset_tick = ticks / 3 + static_cast<std::uint32_t>(h % 5);
    p.phase = static_cast<std::uint32_t>(h % kSynRowsPerApp);
    f.hosts.push_back(p);
    if (p.is_malware) ++f.malware_hosts;
  }
  return f;
}

const serve::FleetSetup& shared_fleet() {
  static const serve::FleetSetup fleet = synthetic_fleet(48, 36);
  return fleet;
}

serve::ServeConfig base_config() {
  serve::ServeConfig cfg;
  cfg.threads = 1;
  cfg.shards = 5;  // several shards even on a 48-host fleet
  cfg.straggler_rate = 0.25;
  cfg.straggler_reps = 1;
  cfg.hedge = true;
  cfg.record_verdicts = true;
  return cfg;
}

void expect_same_counters(const serve::ServeCounters& a,
                          const serve::ServeCounters& b) {
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.scored_rows, b.scored_rows);
  EXPECT_EQ(a.straggler_batches, b.straggler_batches);
  EXPECT_EQ(a.hedges_launched, b.hedges_launched);
  EXPECT_EQ(a.alarms_raised, b.alarms_raised);
  EXPECT_EQ(a.alarmed_hosts, b.alarmed_hosts);
  EXPECT_EQ(a.malware_hosts, b.malware_hosts);
  EXPECT_EQ(a.campaign_hosts, b.campaign_hosts);
  EXPECT_EQ(a.drift_checks, b.drift_checks);
  EXPECT_EQ(a.drift_triggers, b.drift_triggers);
  EXPECT_EQ(a.drift_trigger_tick, b.drift_trigger_tick);
  EXPECT_EQ(a.drift_tripped_shards, b.drift_tripped_shards);
  EXPECT_EQ(a.model_swaps, b.model_swaps);
  EXPECT_EQ(a.model_swap_tick, b.model_swap_tick);
  EXPECT_EQ(a.retrain_base_rows, b.retrain_base_rows);
  EXPECT_EQ(a.retrain_window_rows, b.retrain_window_rows);
  EXPECT_EQ(a.final_model_epoch, b.final_model_epoch);
  EXPECT_EQ(a.verdict_hash, b.verdict_hash);
}

void expect_same_verdicts(const std::vector<serve::ServeVerdict>& a,
                          const std::vector<serve::ServeVerdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tick, b[i].tick);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].alarm, b[i].alarm);
    EXPECT_EQ(a[i].stale, b[i].stale);
    // Exact bits, not a tolerance: the determinism contract.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].score),
              std::bit_cast<std::uint64_t>(b[i].score));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].ewma),
              std::bit_cast<std::uint64_t>(b[i].ewma));
  }
}

TEST(ServeFleet, BitIdenticalAcrossWorkerCounts) {
  const serve::FleetSetup& fleet = shared_fleet();
  serve::ServeConfig one = base_config();
  serve::ServeConfig three = base_config();
  three.threads = 3;
  const auto a = serve::run_fleet(fleet, one);
  const auto b = serve::run_fleet(fleet, three);
  expect_same_counters(a.counters, b.counters);
  expect_same_verdicts(a.verdicts, b.verdicts);
}

TEST(ServeFleet, BatchedAndUnbatchedScoringAgreeBitForBit) {
  const serve::FleetSetup& fleet = shared_fleet();
  serve::ServeConfig batched = base_config();
  batched.threads = 2;
  serve::ServeConfig unbatched = batched;
  unbatched.batched = false;
  const auto a = serve::run_fleet(fleet, batched);
  const auto b = serve::run_fleet(fleet, unbatched);
  expect_same_counters(a.counters, b.counters);
  expect_same_verdicts(a.verdicts, b.verdicts);
}

TEST(ServeFleet, HedgingIsInvisibleToTheVerdictStream) {
  const serve::FleetSetup& fleet = shared_fleet();
  serve::ServeConfig hedged = base_config();
  serve::ServeConfig unhedged = base_config();
  unhedged.hedge = false;
  const auto a = serve::run_fleet(fleet, hedged);
  const auto b = serve::run_fleet(fleet, unhedged);
  // Same straggler marks (seeded), hedges launched only when enabled.
  EXPECT_GT(a.counters.straggler_batches, 0u);
  EXPECT_EQ(a.counters.straggler_batches, b.counters.straggler_batches);
  EXPECT_EQ(a.counters.hedges_launched, a.counters.straggler_batches);
  EXPECT_EQ(b.counters.hedges_launched, 0u);
  // Results are unchanged either way.
  EXPECT_EQ(a.counters.verdict_hash, b.counters.verdict_hash);
  expect_same_verdicts(a.verdicts, b.verdicts);
}

TEST(ServeFleet, VerdictStreamIsSortedCompleteAndHashes) {
  const serve::FleetSetup& fleet = shared_fleet();
  const auto r = serve::run_fleet(fleet, base_config());
  const auto& c = r.counters;
  EXPECT_EQ(c.hosts, 48u);
  EXPECT_EQ(c.ticks, 36u);
  EXPECT_EQ(c.shards, 5u);
  EXPECT_EQ(c.offered, 48u * 36u);
  EXPECT_EQ(c.emitted, c.offered - c.missing);
  EXPECT_GT(c.missing, 0u);  // 4% drop rate over 1728 samples
  EXPECT_EQ(c.shed, 0u);     // admission disabled in the base config
  EXPECT_EQ(c.admitted, c.emitted);
  EXPECT_EQ(c.scored_rows, c.admitted);
  EXPECT_EQ(c.batches, static_cast<std::uint64_t>(c.ticks) * c.shards);

  // Every (tick, host) pair appears exactly once, in sorted order, and the
  // recorded stream re-hashes to the reported hash.
  ASSERT_EQ(r.verdicts.size(), c.offered);
  for (std::size_t i = 0; i < r.verdicts.size(); ++i) {
    const auto& v = r.verdicts[i];
    EXPECT_EQ(v.tick, static_cast<std::uint32_t>(i / 48));
    EXPECT_EQ(v.host, static_cast<std::uint32_t>(i % 48));
  }
  EXPECT_EQ(serve::verdict_stream_hash(r.verdicts), c.verdict_hash);

  // record_verdicts=false skips the stream but must not change the hash.
  serve::ServeConfig quiet = base_config();
  quiet.record_verdicts = false;
  const auto r2 = serve::run_fleet(fleet, quiet);
  EXPECT_TRUE(r2.verdicts.empty());
  EXPECT_EQ(r2.counters.verdict_hash, c.verdict_hash);
}

TEST(ServeFleet, MalwareHostsAlarmAndBenignHostsStayQuiet) {
  const serve::FleetSetup& fleet = shared_fleet();
  const auto r = serve::run_fleet(fleet, base_config());
  EXPECT_EQ(r.counters.malware_hosts, 16u);  // every third of 48
  // The synthetic bank's blobs sit at the class centres, so detection is
  // ground truth: every infected host alarms after onset, no clean host
  // ever does.
  EXPECT_EQ(r.counters.alarmed_hosts, r.counters.malware_hosts);
  for (const auto& v : r.verdicts) {
    if (!v.alarm) continue;
    EXPECT_TRUE(fleet.hosts[v.host].is_malware);
    EXPECT_GT(v.tick, fleet.hosts[v.host].onset_tick);
  }
}

TEST(ServeFleet, AdmissionShedsDeterministicallyUnderOverload) {
  const serve::FleetSetup& fleet = shared_fleet();
  serve::ServeConfig cfg = base_config();
  cfg.admit_per_tick = 24;  // half the fleet per tick
  cfg.admit_burst = 48;
  const auto a = serve::run_fleet(fleet, cfg);
  EXPECT_GT(a.counters.shed, 0u);
  EXPECT_EQ(a.counters.admitted + a.counters.shed, a.counters.emitted);
  EXPECT_EQ(a.counters.scored_rows, a.counters.admitted);

  // Shed verdicts carry the held automaton state, flagged kShed.
  std::uint64_t shed_seen = 0;
  for (const auto& v : a.verdicts)
    if (v.outcome == serve::SampleOutcome::kShed) ++shed_seen;
  EXPECT_EQ(shed_seen, a.counters.shed);

  // The admitted/shed partition is part of the deterministic domain.
  serve::ServeConfig threaded = cfg;
  threaded.threads = 3;
  const auto b = serve::run_fleet(fleet, threaded);
  expect_same_counters(a.counters, b.counters);
  expect_same_verdicts(a.verdicts, b.verdicts);
}

// ---------------------------------------------------------------------------
// The no-allocation contract on the steady-state observe() path.

TEST(OnlineDetectorAllocation, SteadyStateObserveDoesNotAllocate) {
  auto trained = ml::make_detector(ml::ClassifierKind::kJRip,
                                   ml::EnsembleKind::kBagging, 7);
  trained->train(testutil::gaussian_blobs(40, 3, 1, 0.8, 11));
  std::shared_ptr<const ml::Classifier> model = std::move(trained);
  const std::vector<sim::Event> events = {
      sim::Event::kCpuCycles, sim::Event::kInstructions,
      sim::Event::kCacheMisses, sim::Event::kBranchMisses};
  core::OnlineDetector detector(model, events);

  std::vector<sim::EventCounts> samples(8);
  Rng rng(5);
  for (auto& counts : samples)
    for (sim::Event e : events)
      counts[e] = 1000 + static_cast<std::uint64_t>(rng.uniform() * 4096.0);

  // Warm up: first observes may touch lazily-sized buffers.
  for (std::size_t i = 0; i < 4; ++i) detector.observe(samples[i]);

  const std::uint64_t before = heap_allocs();
  double ewma = 0.0;
  for (std::size_t i = 0; i < 200; ++i)
    ewma = detector.observe(samples[i % samples.size()]).ewma;
  const std::uint64_t after = heap_allocs();
  EXPECT_EQ(after, before) << "observe() allocated on the steady-state path";
  EXPECT_GE(ewma, 0.0);  // keep the loop's result observable

  // observe_missing is pure automaton stepping: also allocation-free.
  const std::uint64_t before_missing = heap_allocs();
  for (int i = 0; i < 50; ++i) detector.observe_missing();
  EXPECT_EQ(heap_allocs(), before_missing);
}

}  // namespace
}  // namespace hmd
