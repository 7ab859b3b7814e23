// Concept-drift detection and model refresh for the serving pipeline.
//
// A deployed HMD has no labels at run time — the only signal it owns is
// the score stream its own model emits (the anomaly-detection framing of
// Garcia-Serrano, PAPERS.md). This module watches exactly that: each
// shard's worker accumulates a ShardScoreWindow (mean + P² tail quantile —
// serve/quantile.h reused) over the scores it steps, and at fixed
// check-interval barriers the controller feeds every shard's window, in
// shard order, to a DriftDetector that maintains per-shard EWMA'd means
// under a two-sided Page-Hinkley test plus a tail-shift gate. When at
// least `min_shards` shards trip in one check, the fleet-wide trigger
// fires.
//
// Determinism: the trigger is a pure function of the verdict stream.
// Scores are bit-identical across worker counts (the serving contract),
// each shard's window is filled by its single owning worker in FIFO tick
// order, the controller only reads windows at pipeline-drain barriers, and
// the detector walks shards in index order — so the trigger tick, the
// tripped-shard count, and everything downstream (retrain input, swap
// tick) land in ServeCounters' deterministic domain, bit-identical across
// --threads {1,4}.
//
// The refresh path (RefreshConfig, retrain_model): after a trigger the
// controller harvests a deterministic sample of admitted windows (labelled
// by ground truth — modelling analyst triage of the flagged interval; a
// novel family the model scores benign would never be alarm-self-labelled,
// so self-training on own verdicts is exactly the trap this avoids),
// refits on a background worker via ml::refit_with_windows, and hot-swaps
// the model at a fixed virtual tick. With a checkpoint directory set, the
// retrain re-captures the deployment split under the PR 5 checkpoint
// subsystem (hpc/checkpoint.h, auto-resume): a retrain killed mid-capture
// resumes where it stopped and still produces a bit-identical model.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "serve/fleet.h"
#include "serve/quantile.h"

namespace hmd::serve {

/// Drift-detection knobs. All thresholds act on scores in [0, 1].
struct DriftDetectorConfig {
  bool enabled = false;
  /// Ticks between drift checks; each check is a pipeline-drain barrier.
  std::uint32_t check_interval = 16;
  /// Checks that only establish the baseline; no trigger can fire during
  /// warmup (the first checks see cold-start EWMA transients).
  std::uint32_t warmup_checks = 2;
  /// Smoothing of the per-check shard mean score fed to Page-Hinkley.
  double ewma_alpha = 0.3;
  /// Page-Hinkley insensitivity: per-check slack around the running mean.
  double ph_delta = 0.005;
  /// Page-Hinkley trip threshold on the cumulative deviation.
  double ph_lambda = 0.1;
  /// Quantile of the per-window score tail gate (P² estimator).
  double tail_q = 0.95;
  /// Absolute tail shift versus the warmup baseline that trips a shard.
  double tail_lambda = 0.2;
  /// Shards that must trip in the same check to fire the fleet trigger.
  std::size_t min_shards = 2;
};

/// One shard's score accumulation between two drift checks. Owned by the
/// shard's worker thread; read and reset by the controller only at
/// barriers. Pure function of the (ordered) score sequence.
class ShardScoreWindow {
 public:
  explicit ShardScoreWindow(double tail_q = 0.95)
      : tail_q_(tail_q), tail_(tail_q) {}

  void observe(double score) {
    sum_ += score;
    ++n_;
    tail_.add(score);
  }

  bool empty() const { return n_ == 0; }
  std::uint64_t samples() const { return n_; }
  double mean() const {
    return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0;
  }
  double tail() const { return tail_.estimate(); }

  void reset() {
    sum_ = 0.0;
    n_ = 0;
    tail_ = QuantileEstimator(tail_q_);
  }

 private:
  double tail_q_;
  double sum_ = 0.0;
  std::uint64_t n_ = 0;
  QuantileEstimator tail_;
};

/// Two-sided Page-Hinkley change detector: cumulative deviation of the
/// observations from their running mean, with `delta` slack; trips when
/// either side's excursion from its extremum exceeds `lambda`. Pure
/// function of the observation sequence.
class PageHinkley {
 public:
  PageHinkley(double delta, double lambda);

  void observe(double x);
  bool tripped() const { return tripped_; }
  /// Largest excursion seen so far (max over both sides); the margin
  /// against lambda, useful for diagnostics.
  double excursion() const { return excursion_; }
  std::uint64_t observations() const { return n_; }

 private:
  double delta_;
  double lambda_;
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double up_ = 0.0;        ///< cumulative (x - mean - delta)
  double up_min_ = 0.0;    ///< running min of up_
  double down_ = 0.0;      ///< cumulative (x - mean + delta)
  double down_max_ = 0.0;  ///< running max of down_
  double excursion_ = 0.0;
  bool tripped_ = false;
};

/// Fleet-wide drift detector: per-shard EWMA + Page-Hinkley + tail gate,
/// evaluated at controller barriers. Single-threaded (controller-owned).
class DriftDetector {
 public:
  DriftDetector(const DriftDetectorConfig& cfg, std::size_t shards);

  /// Evaluate one check at barrier tick `tick` from the per-shard windows
  /// (windows.size() == shards, shard index order). Empty windows (a shard
  /// whose samples were all shed/missing this interval) are skipped.
  /// Returns true when the fleet-wide trigger condition holds this check.
  bool check(std::span<const ShardScoreWindow> windows, std::uint32_t tick);

  std::uint64_t checks() const { return checks_; }
  /// Checks (post-warmup) on which the fleet-wide condition held.
  std::uint64_t triggers() const { return triggers_; }
  bool triggered() const { return triggers_ > 0; }
  /// Barrier tick of the first trigger; 0 when never triggered.
  std::uint32_t trigger_tick() const { return trigger_tick_; }
  /// Shards tripped at the first trigger; 0 when never triggered.
  std::size_t tripped_shards() const { return tripped_shards_; }

 private:
  struct Shard {
    PageHinkley ph;
    double ewma = 0.0;
    bool ewma_init = false;
    double baseline_tail_sum = 0.0;
    std::uint64_t baseline_checks = 0;
    bool tripped = false;  ///< latched once tripped
  };

  DriftDetectorConfig cfg_;
  std::vector<Shard> shards_;
  std::uint64_t checks_ = 0;
  std::uint64_t triggers_ = 0;
  std::uint32_t trigger_tick_ = 0;
  std::size_t tripped_shards_ = 0;
};

/// Model-refresh knobs (acted on by the controller after a trigger).
struct RefreshConfig {
  /// Retrain + hot-swap on trigger. false = detection-only: the trigger
  /// and its tick are still counted, nothing is retrained or swapped.
  bool enabled = true;
  /// Ticks of admitted windows harvested after the trigger as retrain
  /// input (labelled by ground truth — the analyst-triage model).
  std::uint32_t harvest_ticks = 16;
  /// Trigger tick -> swap tick distance. The retrain runs on a background
  /// worker inside this budget; must exceed harvest_ticks. If the swap
  /// tick lands past the end of the run, no swap happens.
  std::uint32_t refresh_lag_ticks = 48;
  /// Cap on harvested window rows (deterministically subsampled).
  std::size_t max_window_rows = 4096;
  /// Non-empty: the retrain re-captures the deployment training split
  /// under this checkpoint directory (auto-resume: fresh when empty,
  /// resumed when a matching manifest exists — kill-and-re-run safe).
  /// Empty: the retrain augments the cached FleetSetup::base_train.
  /// Both paths produce bit-identical models (capture is deterministic).
  std::string checkpoint_dir{};
  /// Seed for the refit's make_detector (defaults to the deployed model's).
  std::uint64_t refit_seed = 0;  ///< 0 = FleetSetup::model_seed
};

/// Outcome of one drift-triggered retrain.
struct RetrainOutcome {
  std::shared_ptr<const ml::Classifier> model;
  std::uint64_t base_rows = 0;    ///< rows of the base training split
  std::uint64_t window_rows = 0;  ///< harvested rows in the augmentation
};

/// Refit the fleet's model on its base training split plus harvested
/// window rows (row-major fleet.num_features wide; one label per row).
/// Deterministic in its inputs; see RefreshConfig::checkpoint_dir for the
/// resumable re-capture path.
RetrainOutcome retrain_model(const FleetSetup& fleet,
                             std::span<const double> window_rows,
                             std::span<const int> window_labels,
                             const RefreshConfig& cfg);

}  // namespace hmd::serve
