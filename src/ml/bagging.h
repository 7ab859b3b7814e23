// Bagging (Breiman, 1996) — bootstrap aggregation, the paper's second
// ensemble technique.
//
// Each of the `bags` members (WEKA default 10) trains on an independent
// bootstrap resample of the training data (100% bag size, drawn with
// replacement); prediction averages the members' class probabilities.
// Bagging suits the low-bias/high-variance base learners (trees, rules)
// the paper highlights.
//
// Member b trains on the bootstrap drawn from Rng(seed).fork(b) alone, so
// train() called from a pool worker (support::ThreadPool::current()) fits
// the members as a nested job on that pool; called from anywhere else it
// fits them one after another. Either way the model is bit-identical.
#pragma once

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class Bagging final : public Classifier {
 public:
  Bagging(std::unique_ptr<Classifier> prototype, std::size_t bags = 10,
          std::uint64_t seed = 1);

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  /// Member agreement, not the averaged probability: |2·(hard malware
  /// votes / members) − 1|. An attacked sample that drags the *average*
  /// under 0.5 usually leaves the members split near 50/50, so this margin
  /// collapses even when |2p−1| of the averaged proba does not — exactly
  /// the signal the perturbation-aware vote defence gates on.
  double margin(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  std::string name() const override;
  /// A kBagging EnsembleIr: member probabilities are averaged.
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t num_members() const { return members_.size(); }
  const Classifier& member(std::size_t i) const { return *members_[i]; }

 private:
  std::unique_ptr<Classifier> prototype_;
  std::size_t bags_;
  std::uint64_t seed_;

  std::vector<std::unique_ptr<Classifier>> members_;
  bool trained_ = false;
};

}  // namespace hmd::ml
