// BayesNet — Bayesian network classifier over MDL-discretized attributes.
//
// WEKA's BayesNet with default settings (K2 search, one parent maximum,
// SimpleEstimator) almost always learns the naive structure on this kind of
// data, with each attribute discretized first. We implement exactly that
// estimator: per-attribute Fayyad–Irani discretization, then a
// class-conditional probability table per attribute with Laplace smoothing
// (alpha = 0.5, WEKA's SimpleEstimator default).
//
// Optionally the structure can be upgraded to TAN (tree-augmented naive
// Bayes, Chow–Liu tree over class-conditional mutual information), which is
// exposed as an ablation in the benches.
#pragma once

#include <vector>

#include "ml/classifier.h"
#include "ml/discretize.h"

namespace hmd::ml {

class BayesNet final : public Classifier {
 public:
  enum class Structure { kNaive, kTan };

  explicit BayesNet(Structure structure = Structure::kNaive,
                    double alpha = 0.5)
      : structure_(structure), alpha_(alpha) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<BayesNet>(structure_, alpha_);
  }
  std::string name() const override { return "BayesNet"; }
  std::optional<ModelStructure> trained_structure() const override;

  Structure structure() const { return structure_; }

  static constexpr std::size_t kNoParent = CptIr::kNoParent;

 private:
  // log P(bin | class [, parent bin]) for one attribute.
  struct AttributeCpt {
    Discretizer disc;
    std::size_t parent = kNoParent;       ///< attribute index or kNoParent
    // log_prob[cls][parent_bin][bin]; parent_bin dimension is 1 when no
    // parent.
    std::vector<std::vector<std::vector<double>>> log_prob;
  };

  Structure structure_;
  double alpha_;

  double log_prior_[2] = {0.0, 0.0};
  std::vector<AttributeCpt> cpts_;
  bool trained_ = false;
};

}  // namespace hmd::ml
