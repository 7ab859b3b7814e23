// MultilayerPerceptron — one hidden sigmoid layer trained with
// backpropagation (stochastic gradient descent with momentum).
//
// Hyper-parameters follow WEKA's MultilayerPerceptron defaults: hidden
// units = (#attributes + #classes) / 2 (the 'a' wildcard), learning rate
// 0.3, momentum 0.2, inputs standardized. Epoch count is configurable
// (WEKA's 500; we default to 300 which converges on these datasets).
// Instance weights scale the per-sample gradient, so the model composes
// with AdaBoost re-weighting.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class Mlp final : public Classifier {
 public:
  explicit Mlp(std::size_t hidden = 0 /* 0 = WEKA 'a' rule */,
               double learning_rate = 0.3, double momentum = 0.2,
               std::size_t epochs = 300, std::uint64_t seed = 1)
      : hidden_(hidden),
        learning_rate_(learning_rate),
        momentum_(momentum),
        epochs_(epochs),
        seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<Mlp>(hidden_, learning_rate_, momentum_, epochs_,
                                 seed_);
  }
  std::string name() const override { return "MLP"; }
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t hidden_units() const { return h_; }

 private:
  double forward(std::span<const double> x, std::vector<double>& hid) const;

  std::size_t hidden_;
  double learning_rate_;
  double momentum_;
  std::size_t epochs_;
  std::uint64_t seed_;

  std::size_t nf_ = 0, h_ = 0;
  std::vector<double> mean_, stdev_;       ///< input standardization
  std::vector<double> w1_;                 ///< h_ × nf_ (row-major)
  std::vector<double> b1_;                 ///< h_
  std::vector<double> w2_;                 ///< h_
  double b2_ = 0.0;
  bool trained_ = false;
};

}  // namespace hmd::ml
