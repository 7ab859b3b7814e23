// AdaBoost.M1 (Freund & Schapire, 1997) — the paper's "Boosted" detectors.
//
// Each boosting round trains a fresh copy of the base classifier on the
// re-weighted training set, then multiplies the weights of correctly
// classified instances by beta = err/(1-err) and renormalises (the WEKA
// AdaBoostM1 formulation). Rounds stop early when the base error hits 0 or
// exceeds 1/2. Prediction is the alpha-weighted vote of the members'
// *hard* decisions — which is exactly why boosting turns the hard-output
// SMO/SGD into detectors with a real, graded ROC curve.
#pragma once

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class AdaBoostM1 final : public Classifier {
 public:
  /// `prototype` supplies clone_untrained() copies for the rounds.
  /// `iterations` is WEKA's default 10. `resample` switches to WEKA's -Q
  /// mode (weight-proportional bootstrap per round); the default, like
  /// WEKA's, passes the weights straight to the base learner — resampling
  /// leaks duplicate rows into learners' internal grow/prune splits and
  /// measurably hurts REPTree/J48 (see the ensemble ablation bench).
  AdaBoostM1(std::unique_ptr<Classifier> prototype,
             std::size_t iterations = 10, std::uint64_t seed = 1,
             bool resample = false);

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  /// Alpha-weighted vote margin: |vote(malware) − vote(benign)| / vote(all).
  /// Identical to the default |2p−1| here (the proba IS the vote fraction)
  /// but computed from the votes directly, documenting the agreement
  /// semantics the margin-gated defence relies on.
  double margin(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  std::string name() const override;
  /// A kAdaBoost EnsembleIr whose raw member weights are the alphas.
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t num_members() const { return members_.size(); }
  const Classifier& member(std::size_t i) const { return *members_[i]; }
  double member_alpha(std::size_t i) const { return alpha_[i]; }

 private:
  std::unique_ptr<Classifier> prototype_;
  std::size_t iterations_;
  std::uint64_t seed_;
  bool resample_;

  std::vector<std::unique_ptr<Classifier>> members_;
  std::vector<double> alpha_;
  bool trained_ = false;
};

}  // namespace hmd::ml
