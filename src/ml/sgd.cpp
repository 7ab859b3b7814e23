#include "ml/sgd.h"

#include <cmath>

#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"

namespace hmd::ml {

void Sgd::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  nf_ = data.num_features();
  mean_.assign(nf_, 0.0);
  stdev_.assign(nf_, 1.0);
  for (std::size_t f = 0; f < nf_; ++f) {
    const auto col = data.column(f);
    mean_[f] = mean(col);
    const double sd = stddev(col);
    stdev_[f] = sd > 1e-12 ? sd : 1.0;
  }

  w_.assign(nf_, 0.0);
  b_ = 0.0;
  Rng rng(seed_);
  std::vector<std::size_t> order(data.num_rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const double mean_weight =
      data.total_weight() / static_cast<double>(data.num_rows());
  HMD_REQUIRE(mean_weight > 0.0);

  std::vector<double> xs(nf_);
  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < epochs_; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    for (std::size_t idx : order) {
      ++t;
      // Pegasos-style step size.
      const double eta = 1.0 / (lambda_ * (static_cast<double>(t) + 1e4));
      const auto row = data.row(idx);
      for (std::size_t f = 0; f < nf_; ++f)
        xs[f] = (row[f] - mean_[f]) / stdev_[f];
      const double y = data.label(idx) == 1 ? 1.0 : -1.0;
      const double sw = data.weight(idx) / mean_weight;

      double m = b_;
      for (std::size_t f = 0; f < nf_; ++f) m += w_[f] * xs[f];

      // L2 shrinkage + hinge subgradient.
      for (std::size_t f = 0; f < nf_; ++f) w_[f] *= (1.0 - eta * lambda_);
      if (y * m < 1.0) {
        for (std::size_t f = 0; f < nf_; ++f) w_[f] += eta * sw * y * xs[f];
        b_ += eta * sw * y;
      }
    }
  }
  trained_ = true;
}

double Sgd::margin(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Sgd::train() must be called first");
  HMD_REQUIRE(x.size() == nf_);
  double m = b_;
  for (std::size_t f = 0; f < nf_; ++f)
    m += w_[f] * (x[f] - mean_[f]) / stdev_[f];
  return m;
}

double Sgd::predict_proba(std::span<const double> x) const {
  // Hard posterior, like WEKA's hinge-loss SGD.
  return margin(x) >= 0.0 ? 1.0 : 0.0;
}

std::optional<ModelStructure> Sgd::trained_structure() const {
  if (!trained_) return std::nullopt;
  return LinearIr{w_, b_, mean_, stdev_, /*hard_output=*/true};
}

}  // namespace hmd::ml
