#include "serve/drift.h"

#include <algorithm>
#include <cmath>

#include "core/experiment.h"
#include "ml/refit.h"
#include "support/check.h"
#include "support/parallel.h"

namespace hmd::serve {

PageHinkley::PageHinkley(double delta, double lambda)
    : delta_(delta), lambda_(lambda) {
  HMD_REQUIRE(delta >= 0.0);
  HMD_REQUIRE(lambda > 0.0);
}

void PageHinkley::observe(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
  // Upward side: cumulative (x - mean - delta) drifts up under a mean
  // increase; the excursion above its running minimum is the test statistic.
  up_ += x - mean_ - delta_;
  up_min_ = std::min(up_min_, up_);
  // Downward side, mirrored.
  down_ += x - mean_ + delta_;
  down_max_ = std::max(down_max_, down_);
  excursion_ =
      std::max(excursion_, std::max(up_ - up_min_, down_max_ - down_));
  if (excursion_ > lambda_) tripped_ = true;
}

DriftDetector::DriftDetector(const DriftDetectorConfig& cfg,
                             std::size_t shards)
    : cfg_(cfg) {
  HMD_REQUIRE(shards >= 1);
  HMD_REQUIRE(cfg.check_interval >= 1);
  HMD_REQUIRE(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0);
  HMD_REQUIRE(cfg.tail_q > 0.0 && cfg.tail_q < 1.0);
  HMD_REQUIRE(cfg.tail_lambda > 0.0);
  HMD_REQUIRE(cfg.min_shards >= 1);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s)
    shards_.push_back(Shard{PageHinkley(cfg.ph_delta, cfg.ph_lambda)});
}

bool DriftDetector::check(std::span<const ShardScoreWindow> windows,
                          std::uint32_t tick) {
  HMD_REQUIRE(windows.size() == shards_.size());
  ++checks_;
  const bool warm = checks_ > cfg_.warmup_checks;
  std::size_t tripped_now = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const ShardScoreWindow& w = windows[s];
    if (w.empty()) {
      // A fully shed/missing window carries no score evidence; skipping it
      // (rather than feeding a fabricated 0) keeps the detector a pure
      // function of the scores that actually exist.
      if (shards_[s].tripped) ++tripped_now;
      continue;
    }
    Shard& sh = shards_[s];
    const double mean = w.mean();
    sh.ewma = sh.ewma_init ? cfg_.ewma_alpha * mean +
                                 (1.0 - cfg_.ewma_alpha) * sh.ewma
                           : mean;
    sh.ewma_init = true;
    sh.ph.observe(sh.ewma);
    if (!warm) {
      // Warmup: establish the tail baseline, suppress any trip.
      sh.baseline_tail_sum += w.tail();
      ++sh.baseline_checks;
      continue;
    }
    if (!sh.tripped) {
      const double baseline =
          sh.baseline_checks > 0
              ? sh.baseline_tail_sum / static_cast<double>(sh.baseline_checks)
              : 0.0;
      const bool tail_shift =
          sh.baseline_checks > 0 &&
          std::abs(w.tail() - baseline) > cfg_.tail_lambda;
      // Latched: once a shard's score distribution has moved, it stays
      // tripped for the rest of the run. Only the FIRST fleet trigger is
      // acted on (one refresh per run); later checks merely keep counting
      // triggers for the report.
      if (sh.ph.tripped() || tail_shift) sh.tripped = true;
    }
    if (sh.tripped) ++tripped_now;
  }
  if (!warm) return false;
  const std::size_t need = std::min(cfg_.min_shards, shards_.size());
  const bool fired = tripped_now >= need;
  if (fired) {
    if (triggers_ == 0) {
      trigger_tick_ = tick;
      tripped_shards_ = tripped_now;
    }
    ++triggers_;
  }
  return fired;
}

RetrainOutcome retrain_model(const FleetSetup& fleet,
                             std::span<const double> window_rows,
                             std::span<const int> window_labels,
                             const RefreshConfig& cfg) {
  HMD_REQUIRE(window_rows.size() ==
              window_labels.size() * fleet.num_features);

  // Base split: either the cached deployment split, or — when a checkpoint
  // directory is configured and the fleet records its offline recipe — a
  // re-capture of that exact recipe under the checkpoint store. The two
  // are bit-identical (capture is deterministic); the checkpointed path
  // additionally survives being killed mid-capture: auto-resume reloads
  // completed apps and re-executes only the missing ones.
  ml::Dataset base = fleet.base_train;
  if (!cfg.checkpoint_dir.empty() && fleet.offline) {
    hpc::CaptureConfig capture = fleet.capture_cfg;
    capture.checkpoint_dir = cfg.checkpoint_dir;
    capture.resume = false;
    capture.resume_auto = true;
    const hpc::Capture recapture = hpc::capture_corpus(
        sim::build_corpus(fleet.deploy_corpus), fleet.events, capture);
    base = core::to_dataset(recapture);
  }
  HMD_REQUIRE_MSG(base.num_rows() > 0,
                  "fleet has no base training split to refit from");

  ml::RefitConfig refit;
  refit.kind = fleet.model_kind;
  refit.ensemble = fleet.model_ensemble;
  refit.seed = cfg.refit_seed != 0 ? cfg.refit_seed : fleet.model_seed;

  RetrainOutcome out;
  out.base_rows = base.num_rows();
  out.window_rows = window_labels.size();
  // The refit is a one-unit job on a pool of its own, so a bagged
  // detector's members fan out across the pool (ml/bagging.h). The pool
  // starts only after the re-capture above: inside it, the capture's own
  // pool would run inline.
  support::ThreadPool(fleet.cfg.threads).parallel_for(1, [&](std::size_t) {
    out.model = ml::refit_with_windows(base, window_rows, fleet.num_features,
                                       window_labels, refit);
  });
  return out;
}

}  // namespace hmd::serve
