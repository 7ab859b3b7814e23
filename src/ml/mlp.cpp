#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"
#include "support/rng.h"
#include "support/stats.h"

namespace hmd::ml {
namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

double Mlp::forward(std::span<const double> x, std::vector<double>& hid) const {
  hid.resize(h_);
  for (std::size_t j = 0; j < h_; ++j) {
    double z = b1_[j];
    const double* w = &w1_[j * nf_];
    for (std::size_t f = 0; f < nf_; ++f)
      z += w[f] * (x[f] - mean_[f]) / stdev_[f];
    hid[j] = sigmoid(z);
  }
  double z = b2_;
  for (std::size_t j = 0; j < h_; ++j) z += w2_[j] * hid[j];
  return sigmoid(z);
}

void Mlp::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  nf_ = data.num_features();
  h_ = hidden_ != 0 ? hidden_ : std::max<std::size_t>(2, (nf_ + 2) / 2);

  // Standardization statistics.
  mean_.assign(nf_, 0.0);
  stdev_.assign(nf_, 1.0);
  for (std::size_t f = 0; f < nf_; ++f) {
    const auto col = data.column(f);
    mean_[f] = mean(col);
    const double sd = stddev(col);
    stdev_[f] = sd > 1e-12 ? sd : 1.0;
  }

  Rng rng(seed_);
  auto init = [&] { return rng.uniform(-0.5, 0.5); };
  w1_.resize(h_ * nf_);
  b1_.assign(h_, 0.0);
  w2_.resize(h_);
  b2_ = 0.0;
  for (double& w : w1_) w = init();
  for (double& b : b1_) b = init();
  for (double& w : w2_) w = init();
  b2_ = init();

  std::vector<double> v1(w1_.size(), 0.0), vb1(h_, 0.0), v2(h_, 0.0);
  double vb2 = 0.0;

  std::vector<std::size_t> order(data.num_rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> hid, xs(nf_);

  const double mean_weight =
      data.total_weight() / static_cast<double>(data.num_rows());
  HMD_REQUIRE(mean_weight > 0.0);

  for (std::size_t epoch = 0; epoch < epochs_; ++epoch) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    // WEKA decays the learning rate over epochs.
    const double lr = learning_rate_ /
                      (1.0 + static_cast<double>(epoch) /
                                 static_cast<double>(epochs_));
    for (std::size_t idx : order) {
      const auto row = data.row(idx);
      for (std::size_t f = 0; f < nf_; ++f)
        xs[f] = (row[f] - mean_[f]) / stdev_[f];
      const double target = static_cast<double>(data.label(idx));
      const double sample_w = data.weight(idx) / mean_weight;

      const double out = forward(row, hid);
      const double delta_out = (out - target) * sample_w;

      // Output layer.
      for (std::size_t j = 0; j < h_; ++j) {
        const double g = delta_out * hid[j];
        v2[j] = momentum_ * v2[j] - lr * g;
      }
      vb2 = momentum_ * vb2 - lr * delta_out;

      // Hidden layer.
      for (std::size_t j = 0; j < h_; ++j) {
        const double delta_h =
            delta_out * w2_[j] * hid[j] * (1.0 - hid[j]);
        double* w = &w1_[j * nf_];
        double* v = &v1[j * nf_];
        for (std::size_t f = 0; f < nf_; ++f) {
          v[f] = momentum_ * v[f] - lr * delta_h * xs[f];
          w[f] += v[f];
        }
        vb1[j] = momentum_ * vb1[j] - lr * delta_h;
        b1_[j] += vb1[j];
      }
      for (std::size_t j = 0; j < h_; ++j) w2_[j] += v2[j];
      b2_ += vb2;
    }
  }
  trained_ = true;
}

double Mlp::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Mlp::train() must be called first");
  HMD_REQUIRE(x.size() == nf_);
  std::vector<double> hid;
  return forward(x, hid);
}

std::optional<ModelStructure> Mlp::trained_structure() const {
  if (!trained_) return std::nullopt;
  return MlpIr{nf_, h_, w1_, b1_, w2_, b2_, mean_, stdev_};
}

}  // namespace hmd::ml
