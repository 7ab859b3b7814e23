#include "ml/calibration.h"

#include <cmath>
#include <vector>

#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {

PlattScaling::PlattScaling(std::unique_ptr<Classifier> inner,
                           double calibration_fraction, std::uint64_t seed)
    : inner_(std::move(inner)),
      calibration_fraction_(calibration_fraction),
      seed_(seed) {
  HMD_REQUIRE(inner_ != nullptr);
  HMD_REQUIRE(calibration_fraction_ > 0.0 && calibration_fraction_ < 1.0);
}

void PlattScaling::fit_sigmoid(std::span<const double> scores,
                               std::span<const int> labels, double& a,
                               double& b) {
  HMD_REQUIRE(scores.size() == labels.size());
  HMD_REQUIRE(!scores.empty());
  // Target probabilities with the Platt prior correction.
  double n_pos = 0.0, n_neg = 0.0;
  for (int y : labels) (y == 1 ? n_pos : n_neg) += 1.0;
  const double t_pos = (n_pos + 1.0) / (n_pos + 2.0);
  const double t_neg = 1.0 / (n_neg + 2.0);

  a = 0.0;
  b = std::log((n_neg + 1.0) / (n_pos + 1.0));
  // Newton with backtracking on the cross-entropy objective.
  const double kSigma = 1e-12;
  for (int iter = 0; iter < 100; ++iter) {
    double g_a = 0.0, g_b = 0.0, h_aa = kSigma, h_bb = kSigma, h_ab = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const double t = labels[i] == 1 ? t_pos : t_neg;
      const double f = a * scores[i] + b;
      const double p = 1.0 / (1.0 + std::exp(f));
      // dL/df = (t - p) with this parameterisation (p = P(y=1)).
      const double d = t - p;
      g_a += scores[i] * d;
      g_b += d;
      const double w = p * (1.0 - p);
      h_aa += scores[i] * scores[i] * w;
      h_ab += scores[i] * w;
      h_bb += w;
    }
    const double det = h_aa * h_bb - h_ab * h_ab;
    if (std::fabs(det) < 1e-18) break;
    const double da = -(h_bb * g_a - h_ab * g_b) / det;
    const double db = -(h_aa * g_b - h_ab * g_a) / det;
    a += da;
    b += db;
    if (std::fabs(da) + std::fabs(db) < 1e-10) break;
  }
}

void PlattScaling::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() >= 4);
  Rng rng(seed_);

  // Stratified holdout for the sigmoid fit.
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    (data.label(i) == 1 ? pos : neg).push_back(i);
  auto shuffle = [&](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.below(i)]);
  };
  shuffle(pos);
  shuffle(neg);
  std::vector<std::size_t> fit_rows, cal_rows;
  auto split = [&](const std::vector<std::size_t>& v) {
    const auto n_cal = static_cast<std::size_t>(
        calibration_fraction_ * static_cast<double>(v.size()));
    for (std::size_t i = 0; i < v.size(); ++i)
      (i < n_cal ? cal_rows : fit_rows).push_back(v[i]);
  };
  split(pos);
  split(neg);
  if (fit_rows.empty() || cal_rows.empty()) {
    fit_rows.clear();
    for (std::size_t i = 0; i < data.num_rows(); ++i) fit_rows.push_back(i);
    cal_rows = fit_rows;
  }

  inner_->train(data.subset(fit_rows));

  const Dataset cal = data.subset(cal_rows);
  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < cal.num_rows(); ++i) {
    // Use the inner model's raw posterior as the score; hard 0/1 outputs
    // still calibrate (they become a two-level sigmoid).
    scores.push_back(inner_->predict_proba(cal.row(i)) * 2.0 - 1.0);
    labels.push_back(cal.label(i));
  }
  fit_sigmoid(scores, labels, a_, b_);
  trained_ = true;
}

double PlattScaling::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "PlattScaling::train() must be called first");
  const double s = inner_->predict_proba(x) * 2.0 - 1.0;
  return 1.0 / (1.0 + std::exp(a_ * s + b_));
}

std::unique_ptr<Classifier> PlattScaling::clone_untrained() const {
  return std::make_unique<PlattScaling>(inner_->clone_untrained(),
                                        calibration_fraction_, seed_);
}

std::string PlattScaling::name() const {
  return "Platt(" + inner_->name() + ")";
}

}  // namespace hmd::ml
