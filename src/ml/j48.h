// J48 — the WEKA re-implementation of Quinlan's C4.5 decision tree.
//
// Numeric attributes are split binarily at the boundary midpoint that
// maximises information gain; among attributes whose gain reaches the mean
// positive gain, the one with the best *gain ratio* wins (C4.5's two-stage
// criterion, including the log2(candidates)/N penalty for numeric splits).
// Pruning is C4.5's pessimistic subtree replacement with confidence factor
// 0.25 (WEKA default); subtree *raising* is not implemented (documented
// deviation — its effect on these datasets is marginal).
#pragma once

#include <vector>

#include "ml/classifier.h"
#include "ml/presort.h"

namespace hmd::ml {

class J48 final : public Classifier {
 public:
  /// `confidence` is the C4.5 pruning CF (default 0.25); `min_leaf_weight`
  /// the minimum instance weight per branch (WEKA -M 2); `prune` can be
  /// disabled to obtain the unpruned tree.
  explicit J48(double confidence = 0.25, double min_leaf_weight = 2.0,
               bool prune = true)
      : confidence_(confidence),
        min_leaf_weight_(min_leaf_weight),
        prune_(prune) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<J48>(confidence_, min_leaf_weight_, prune_);
  }
  std::string name() const override { return "J48"; }
  /// The reachable tree as a TreeIr (tree_ir): index 0 is the root.
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  std::size_t depth() const;

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int64_t left = -1;   ///< index of <= branch
    std::int64_t right = -1;  ///< index of  > branch
    double w_pos = 0.0;       ///< training weight of malware at this node
    double w_neg = 0.0;
  };

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    Presort& presort, Presort::Lists& lists);
  double prune_subtree(std::size_t node);  ///< returns estimated errors
  std::size_t depth_of(std::size_t node) const;
  std::size_t leaves_of(std::size_t node) const;

  double confidence_;
  double min_leaf_weight_;
  bool prune_;

  std::vector<Node> nodes_;  ///< node 0 is the root (after train())
  bool trained_ = false;
};

/// C4.5's pessimistic additional-error estimate ("addErrs"): given `n`
/// instances with `e` observed errors at a leaf, the upper confidence bound
/// (at confidence factor `cf`) on the error count. Exposed for testing.
double c45_added_errors(double n, double e, double cf);

/// Inverse standard-normal CDF (Acklam's rational approximation).
double normal_quantile(double p);

}  // namespace hmd::ml
