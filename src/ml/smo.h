// SMO — Platt's Sequential Minimal Optimization for a soft-margin SVM
// with a linear kernel (WEKA's SMO default configuration: C = 1,
// tolerance 1e-3, standardized inputs).
//
// The dual is optimised with the simplified SMO working-set strategy
// (randomised second choice); with the linear kernel the primal weight
// vector is maintained incrementally so training is O(n·d) per pass.
// As in WEKA (without logistic calibration), the classifier outputs hard
// 0/1 posteriors — the paper's weak standalone SMO AUC (~0.65) and its
// dramatic improvement under boosting both follow from this.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class Smo final : public Classifier {
 public:
  explicit Smo(double c = 1.0, double tolerance = 1e-3,
               std::size_t max_passes = 8, std::uint64_t seed = 1)
      : c_(c), tolerance_(tolerance), max_passes_(max_passes), seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<Smo>(c_, tolerance_, max_passes_, seed_);
  }
  std::string name() const override { return "SMO"; }
  std::optional<ModelStructure> trained_structure() const override;

  double margin(std::span<const double> x) const;
  std::size_t support_vector_count() const { return n_support_; }

 private:
  double c_;
  double tolerance_;
  std::size_t max_passes_;
  std::uint64_t seed_;

  std::size_t nf_ = 0;
  std::vector<double> mean_, stdev_;
  std::vector<double> w_;
  double b_ = 0.0;
  std::size_t n_support_ = 0;
  bool trained_ = false;
};

}  // namespace hmd::ml
