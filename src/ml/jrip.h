// JRip — WEKA's implementation of RIPPER (Cohen, 1995), a propositional
// rule learner.
//
// Rules for the minority class are grown condition-by-condition on a 2/3
// grow split by maximising FOIL information gain, then pruned on the 1/3
// prune split by maximising (p - n) / (p + n). Rule-set growth stops when a
// new rule's description length exceeds the best-so-far by 64 bits or the
// rule is worse than random on the prune set. One optimisation pass then
// reconsiders each rule against a freshly grown replacement and a revised
// variant (WEKA runs two passes; we run `optimize_passes`, default 2).
//
// Prediction follows the decision list: the first matching rule fires with
// its Laplace-smoothed precision; otherwise the default class fires.
#pragma once

#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

class JRip final : public Classifier {
 public:
  explicit JRip(std::size_t optimize_passes = 2, double min_rule_weight = 2.0,
                std::uint64_t seed = 1)
      : optimize_passes_(optimize_passes),
        min_rule_weight_(min_rule_weight),
        seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<JRip>(optimize_passes_, min_rule_weight_, seed_);
  }
  std::string name() const override { return "JRip"; }
  std::optional<ModelStructure> trained_structure() const override;

  struct Condition {
    std::size_t feature = 0;
    bool leq = true;  ///< true: x[f] <= value, false: x[f] >= value
    double value = 0.0;

    bool matches(std::span<const double> x) const {
      return leq ? x[feature] <= value : x[feature] >= value;
    }
  };
  struct Rule {
    std::vector<Condition> conditions;  ///< conjunctive antecedent
    double precision = 1.0;             ///< smoothed P(target | fires)

    bool matches(std::span<const double> x) const {
      for (const Condition& c : conditions)
        if (!c.matches(x)) return false;
      return true;
    }
  };

  std::size_t num_rules() const { return rules_.size(); }
  const std::vector<Rule>& rules() const { return rules_; }
  int target_class() const { return target_; }
  /// P(malware) when no rule fires (valid after train()).
  double default_proba() const { return default_proba_; }

 private:
  Rule grow_rule(const Dataset& data,
                 const std::vector<std::size_t>& rows) const;
  void prune_rule(Rule& rule, const Dataset& data,
                  const std::vector<std::size_t>& rows) const;
  double rule_dl(const Rule& rule, const Dataset& data,
                 const std::vector<std::size_t>& rows) const;

  std::size_t optimize_passes_;
  double min_rule_weight_;
  std::uint64_t seed_;

  int target_ = 1;  ///< class the rules predict (minority class)
  std::vector<Rule> rules_;
  double default_proba_ = 0.5;  ///< P(malware) when no rule fires
  bool trained_ = false;
};

}  // namespace hmd::ml
