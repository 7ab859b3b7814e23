// REPTree — WEKA's fast decision tree with Reduced-Error Pruning.
//
// The tree is grown with plain information gain (no gain ratio) on a grow
// partition, then pruned bottom-up against a held-out prune partition:
// an internal node becomes a leaf whenever the leaf would make no more
// prune-set errors than its subtree does. WEKA's default of 3 folds is
// kept: grow on 2/3 of the training data, prune on 1/3 (stratified).
#pragma once

#include <vector>

#include "ml/classifier.h"
#include "ml/presort.h"

namespace hmd::ml {

class RepTree final : public Classifier {
 public:
  explicit RepTree(double min_leaf_weight = 2.0, std::size_t num_folds = 3,
                   std::size_t max_depth = 0 /* 0 = unlimited */,
                   std::uint64_t seed = 1)
      : min_leaf_weight_(min_leaf_weight),
        num_folds_(num_folds),
        max_depth_(max_depth),
        seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<RepTree>(min_leaf_weight_, num_folds_, max_depth_,
                                     seed_);
  }
  std::string name() const override { return "REPTree"; }
  /// The reachable tree as a TreeIr (tree_ir): index 0 is the root.
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int64_t left = -1;
    std::int64_t right = -1;
    double w_pos = 0.0;  ///< grow-set class weights
    double w_neg = 0.0;
  };

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    std::size_t depth, Presort& presort,
                    Presort::Lists& lists);
  /// Returns prune-set errors of the subtree after pruning decisions.
  double rep_prune(const Dataset& prune, std::size_t node,
                   const std::vector<std::size_t>& rows);

  double min_leaf_weight_;
  std::size_t num_folds_;
  std::size_t max_depth_;
  std::uint64_t seed_;

  std::vector<Node> nodes_;
  bool trained_ = false;
};

}  // namespace hmd::ml
