#include "ml/smo.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"

namespace hmd::ml {

void Smo::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  const std::size_t n = data.num_rows();
  nf_ = data.num_features();
  mean_.assign(nf_, 0.0);
  stdev_.assign(nf_, 1.0);
  for (std::size_t f = 0; f < nf_; ++f) {
    const auto col = data.column(f);
    mean_[f] = mean(col);
    const double sd = stddev(col);
    stdev_[f] = sd > 1e-12 ? sd : 1.0;
  }

  // Standardized design matrix (kept dense: corpora here are modest).
  std::vector<double> xmat(n * nf_);
  std::vector<double> y(n);
  std::vector<double> cbox(n);  // per-instance box constraint C * weight
  const double mean_weight = data.total_weight() / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = data.row(i);
    for (std::size_t f = 0; f < nf_; ++f)
      xmat[i * nf_ + f] = (row[f] - mean_[f]) / stdev_[f];
    y[i] = data.label(i) == 1 ? 1.0 : -1.0;
    cbox[i] = c_ * data.weight(i) / mean_weight;
  }

  std::vector<double> alpha(n, 0.0);
  w_.assign(nf_, 0.0);
  b_ = 0.0;

  auto f_of = [&](std::size_t i) {
    double m = b_;
    const double* xi = &xmat[i * nf_];
    for (std::size_t f = 0; f < nf_; ++f) m += w_[f] * xi[f];
    return m;
  };
  auto kdot = [&](std::size_t i, std::size_t j) {
    double k = 0.0;
    const double* xi = &xmat[i * nf_];
    const double* xj = &xmat[j * nf_];
    for (std::size_t f = 0; f < nf_; ++f) k += xi[f] * xj[f];
    return k;
  };

  Rng rng(seed_);
  std::size_t passes = 0;
  // Hard cap on sweeps bounds training time even when convergence stalls
  // on noisy, non-separable data.
  const std::size_t max_total_sweeps = 60;
  std::size_t sweeps = 0;
  while (passes < max_passes_ && sweeps++ < max_total_sweeps) {
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = f_of(i) - y[i];
      const bool violates = (y[i] * ei < -tolerance_ && alpha[i] < cbox[i]) ||
                            (y[i] * ei > tolerance_ && alpha[i] > 0.0);
      if (!violates) continue;

      std::size_t j = rng.below(n - 1);
      if (j >= i) ++j;
      const double ej = f_of(j) - y[j];

      const double ai_old = alpha[i], aj_old = alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(cbox[j], cbox[i] + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - cbox[i]);
        hi = std::min(cbox[j], ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double eta = 2.0 * kdot(i, j) - kdot(i, i) - kdot(j, j);
      if (eta >= 0.0) continue;

      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::fabs(aj - aj_old) < 1e-7) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);

      // Maintain the primal weight vector incrementally.
      const double di = y[i] * (ai - ai_old);
      const double dj = y[j] * (aj - aj_old);
      const double* xi = &xmat[i * nf_];
      const double* xj = &xmat[j * nf_];
      for (std::size_t f = 0; f < nf_; ++f) w_[f] += di * xi[f] + dj * xj[f];

      const double b1 = b_ - ei - di * kdot(i, i) - dj * kdot(i, j);
      const double b2 = b_ - ej - di * kdot(i, j) - dj * kdot(j, j);
      if (ai > 0.0 && ai < cbox[i]) {
        b_ = b1;
      } else if (aj > 0.0 && aj < cbox[j]) {
        b_ = b2;
      } else {
        b_ = (b1 + b2) / 2.0;
      }
      alpha[i] = ai;
      alpha[j] = aj;
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  n_support_ = 0;
  for (double a : alpha)
    if (a > 1e-8) ++n_support_;
  trained_ = true;
}

double Smo::margin(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Smo::train() must be called first");
  HMD_REQUIRE(x.size() == nf_);
  double m = b_;
  for (std::size_t f = 0; f < nf_; ++f)
    m += w_[f] * (x[f] - mean_[f]) / stdev_[f];
  return m;
}

double Smo::predict_proba(std::span<const double> x) const {
  // Hard posterior, like WEKA SMO without logistic calibration.
  return margin(x) >= 0.0 ? 1.0 : 0.0;
}

std::optional<ModelStructure> Smo::trained_structure() const {
  if (!trained_) return std::nullopt;
  return LinearIr{w_, b_, mean_, stdev_, /*hard_output=*/true};
}

}  // namespace hmd::ml
