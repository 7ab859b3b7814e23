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
//
// Training evaluates rules column-wise. For a row list, one evaluator
// counts how many leading conditions each row satisfies, one condition at a
// time down one storage column (raw_column through row_map), touching only
// the rows that passed every earlier condition. A rule covers a row when the
// count is its length, and a truncation to length l covers the rows whose
// count is at least l, so one evaluation scores every truncation in pruning
// (O(L·m) instead of O(L²·m)). Coverage, the MDL stop, the uncovered-row
// filter, the optimisation pass and the default probability all read it,
// and each of their sums still runs in row order, so the learned rules are
// bit-identical to evaluating rule.matches(row) row by row. The
// optimisation pass keeps each rule's matches as one bit per row and
// evaluates a replacement only on the rows the earlier rules leave to it.
//
// The FOIL sweep gathers one feature's values in its presorted list's
// order, then walks the list once, splitting each row's weight between the
// two class sums with a bit mask, not a branch: one sum receives w and the
// other +0.0, and x + 0.0 == x, so the sums equal the branchy ones bit for
// bit. It calls log2 only when the gain could beat the best so far. For
// p > 0 and n >= 0 the computed precision q = p / (p + n) is at most 1, so
// log2(q) <= 0, and rounding is monotone, so the computed gain
// p * (log2(q) - base) is at most p * (0 - base). foil_gain_bound tightens
// this with an upper bound on log2(q) read from q's exponent bits and
// ln m <= 2(m - 1)/(m + 1) for the mantissa m <= 1, with slack above the
// rounding of both that bound and std::log2. A candidate whose bound is
// <= the best gain cannot be taken by the strict `>`, so skipping it leaves
// every chosen condition unchanged. When weighted sums round n below 0, q
// exceeds 1 and the gain is always computed.
#pragma once

#include <span>
#include <vector>

#include "ml/classifier.h"

namespace hmd::ml {

/// FOIL information gain of a condition that keeps target weight p and
/// other weight n, against the rule's current log2 precision `base`:
/// p * (log2(p / (p + n)) - base), the quantity grow_rule maximises.
double foil_gain(double p, double n, double base);

/// Upper bound on foil_gain(p, n, base) that needs no log2: for p > 0 and
/// n >= 0 it is >= the computed foil_gain, bit for bit.
double foil_gain_bound(double p, double n, double base);

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
  Rule grow_rule(const Dataset& data, std::span<const std::size_t> rows,
                 std::span<const std::uint8_t> in_target) const;

  std::size_t optimize_passes_;
  double min_rule_weight_;
  std::uint64_t seed_;

  int target_ = 1;  ///< class the rules predict (minority class)
  std::vector<Rule> rules_;
  double default_proba_ = 0.5;  ///< P(malware) when no rule fires
  bool trained_ = false;
};

}  // namespace hmd::ml
