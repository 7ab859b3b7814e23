// SGD — linear model trained by stochastic gradient descent on the hinge
// loss (WEKA's SGD default), i.e. a primal linear SVM.
//
// Like WEKA, the hinge-loss SGD classifier emits *hard* class posteriors
// (0 or 1): with the hinge loss there is no calibrated probability, and the
// paper's low standalone AUC for SGD (~0.72) is a direct consequence. The
// graded scores that make boosted/bagged SGD robust come from the ensemble
// combination, not from the base model.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class Sgd final : public Classifier {
 public:
  explicit Sgd(double lambda = 1e-4, std::size_t epochs = 100,
               std::uint64_t seed = 1)
      : lambda_(lambda), epochs_(epochs), seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<Sgd>(lambda_, epochs_, seed_);
  }
  std::string name() const override { return "SGD"; }
  std::optional<ModelStructure> trained_structure() const override;

  /// Raw decision margin w·x + b (standardized inputs).
  double margin(std::span<const double> x) const;

 private:
  double lambda_;
  std::size_t epochs_;
  std::uint64_t seed_;

  std::size_t nf_ = 0;
  std::vector<double> mean_, stdev_;
  std::vector<double> w_;
  double b_ = 0.0;
  bool trained_ = false;
};

}  // namespace hmd::ml
