// Platt scaling — post-hoc probability calibration for margin classifiers.
//
// WEKA's SMO has a "-M" option that fits logistic models to the SVM output;
// the paper ran SMO *without* it, which is why SMO's standalone AUC is so
// poor and why boosting improves it so dramatically. This module provides
// the calibrated alternative as an ablation: PlattScaling wraps any
// classifier, fits  P(y=1 | s) = 1 / (1 + exp(A*s + B))  on the wrapped
// model's scores over a held-out calibration fold, and exposes graded
// probabilities. (Platt, 1999; Newton iterations per Lin/Weng/Keerthi.)
#pragma once

#include <memory>

#include "ml/classifier.h"

namespace hmd::ml {

class PlattScaling final : public Classifier {
 public:
  /// `calibration_fraction` of training rows (stratified) are held out to
  /// fit the sigmoid; the wrapped model trains on the remainder.
  explicit PlattScaling(std::unique_ptr<Classifier> inner,
                        double calibration_fraction = 0.3,
                        std::uint64_t seed = 1);

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  std::string name() const override;

  double sigmoid_a() const { return a_; }
  double sigmoid_b() const { return b_; }

  /// Fit the Platt sigmoid to (score, label) pairs; exposed for testing.
  static void fit_sigmoid(std::span<const double> scores,
                          std::span<const int> labels, double& a, double& b);

 private:
  std::unique_ptr<Classifier> inner_;
  double calibration_fraction_;
  std::uint64_t seed_;

  double a_ = -1.0;
  double b_ = 0.0;
  bool trained_ = false;
};

}  // namespace hmd::ml
