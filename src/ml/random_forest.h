// RandomForest (Breiman, 2001) — extension beyond the paper's two ensemble
// techniques.
//
// The paper studies AdaBoost and Bagging over deterministic base learners;
// the obvious next step (and what later HMD work adopted) is a forest of
// randomized trees: bagging plus per-split random feature subsets of size
// ceil(sqrt(d)). Included here as an extension classifier and exercised in
// the ensemble ablation bench.
#pragma once

#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/presort.h"

namespace hmd::ml {

/// An unpruned decision tree that considers a random feature subset at
/// every split (the RandomForest base learner). Usable standalone.
class RandomTree final : public Classifier {
 public:
  /// `features_per_split` = 0 selects ceil(sqrt(d)) at train time.
  explicit RandomTree(std::size_t features_per_split = 0,
                      double min_leaf_weight = 1.0, std::uint64_t seed = 1)
      : features_per_split_(features_per_split),
        min_leaf_weight_(min_leaf_weight),
        seed_(seed) {}

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override {
    return std::make_unique<RandomTree>(features_per_split_,
                                        min_leaf_weight_, seed_);
  }
  std::string name() const override { return "RandomTree"; }
  /// The reachable tree as a TreeIr (tree_ir): index 0 is the root.
  std::optional<ModelStructure> trained_structure() const override;

 private:
  struct Node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    std::int64_t left = -1;
    std::int64_t right = -1;
    double w_pos = 0.0;
    double w_neg = 0.0;
  };

  std::size_t build(const Dataset& data, std::vector<std::size_t>& rows,
                    Rng& rng, Presort& presort, Presort::Lists& lists);

  std::size_t features_per_split_;
  double min_leaf_weight_;
  std::uint64_t seed_;

  std::vector<Node> nodes_;
  bool trained_ = false;
};

/// Bagging of RandomTrees with probability averaging.
class RandomForest final : public Classifier {
 public:
  explicit RandomForest(std::size_t trees = 30,
                        std::size_t features_per_split = 0,
                        std::uint64_t seed = 1);

  void train(const Dataset& data) override;
  double predict_proba(std::span<const double> x) const override;
  std::unique_ptr<Classifier> clone_untrained() const override;
  std::string name() const override { return "RandomForest"; }
  /// A kBagging EnsembleIr: the trees' probabilities are averaged.
  std::optional<ModelStructure> trained_structure() const override;

  std::size_t num_trees() const { return members_.size(); }

 private:
  std::size_t trees_;
  std::size_t features_per_split_;
  std::uint64_t seed_;

  std::vector<std::unique_ptr<Classifier>> members_;
  bool trained_ = false;
};

}  // namespace hmd::ml
