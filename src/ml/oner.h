// OneR (Holte, 1993) — the one-rule classifier.
//
// For every feature, OneR builds a bucketed rule over the sorted values
// (each bucket must contain at least `min_bucket_weight` optimal-class
// instances, WEKA default 6) and keeps the single feature whose rule has the
// lowest training error. The paper observes that OneR always picks
// branch_instructions and is therefore insensitive to feature reduction —
// a behaviour this implementation reproduces given the same ranking.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class OneR final : public Classifier {
 public:
  explicit OneR(double min_bucket_weight = 6.0)
      : min_bucket_weight_(min_bucket_weight) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<OneR>(min_bucket_weight_);
  }
  std::string name() const override { return "OneR"; }
  std::optional<ModelStructure> trained_structure() const override;

  /// The feature the rule was built on (valid after train()).
  std::size_t chosen_feature() const { return feature_; }
  std::size_t num_buckets() const { return proba_.size(); }

 private:
  double min_bucket_weight_;

  std::size_t feature_ = 0;
  std::vector<double> cuts_;   ///< ascending bucket boundaries
  std::vector<double> proba_;  ///< P(malware) per bucket (cuts_.size()+1)
  bool trained_ = false;
};

}  // namespace hmd::ml
