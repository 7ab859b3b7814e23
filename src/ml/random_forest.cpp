#include "ml/random_forest.h"

#include <algorithm>

#include "ml/discretize.h"  // binary_entropy
#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {

std::size_t RandomTree::build(const Dataset& data,
                              std::vector<std::size_t>& rows, Rng& rng,
                              Presort& presort, Presort::Lists& lists) {
  Node node;
  for (std::size_t r : rows)
    (data.label(r) == 1 ? node.w_pos : node.w_neg) += data.weight(r);
  const double w_all = node.w_pos + node.w_neg;
  if (node.w_pos == 0.0 || node.w_neg == 0.0 ||
      w_all < 2.0 * min_leaf_weight_) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  // Random feature subset for this split.
  std::size_t m = features_per_split_;
  if (m == 0) {
    m = 1;
    while (m * m < data.num_features()) ++m;  // ceil(sqrt(d))
  }
  m = std::min(m, data.num_features());
  std::vector<std::size_t> features(data.num_features());
  for (std::size_t f = 0; f < features.size(); ++f) features[f] = f;
  for (std::size_t i = 0; i < m; ++i)
    std::swap(features[i], features[i + rng.below(features.size() - i)]);
  features.resize(m);

  const double h_all = binary_entropy(node.w_pos, node.w_neg);
  double best_gain = 1e-9;
  std::size_t best_f = 0;
  double best_thr = 0.0;
  std::vector<SweepItem>& items = presort.scratch();
  for (std::size_t f : features) {
    presort.gather(rows, lists, f, items);
    double lp = 0.0, ln = 0.0;
    for (std::size_t i = 0; i + 1 < items.size(); ++i) {
      (items[i].y == 1 ? lp : ln) += items[i].w;
      if (items[i + 1].v <= items[i].v) continue;
      const double wl = lp + ln, wr = w_all - wl;
      if (wl < min_leaf_weight_ || wr < min_leaf_weight_) continue;
      const double cond =
          (wl / w_all) * binary_entropy(lp, ln) +
          (wr / w_all) * binary_entropy(node.w_pos - lp, node.w_neg - ln);
      const double gain = h_all - cond;
      if (gain > best_gain) {
        best_gain = gain;
        best_f = f;
        best_thr = (items[i].v + items[i + 1].v) / 2.0;
      }
    }
  }
  if (best_gain <= 1e-9) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  std::vector<std::size_t> left_rows, right_rows;
  const double* best_col = data.raw_column(best_f).data();
  const std::uint32_t* map = data.row_map().data();
  for (std::size_t r : rows)
    (best_col[map[r]] <= best_thr ? left_rows : right_rows).push_back(r);
  Presort::Lists left_lists, right_lists;
  presort.split_lists(lists, rows, best_f, best_thr, &left_lists,
                      &right_lists);
  node.leaf = false;
  node.feature = best_f;
  node.threshold = best_thr;
  nodes_.push_back(node);
  const std::size_t self = nodes_.size() - 1;
  rows.clear();
  rows.shrink_to_fit();
  lists = Presort::Lists{};
  const std::size_t l = build(data, left_rows, rng, presort, left_lists);
  const std::size_t r = build(data, right_rows, rng, presort, right_lists);
  nodes_[self].left = static_cast<std::int64_t>(l);
  nodes_[self].right = static_cast<std::int64_t>(r);
  return self;
}

void RandomTree::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  nodes_.clear();
  Rng rng(seed_);
  std::vector<std::size_t> rows(data.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(data);
  Presort::Lists lists = presort.make_lists(rows);
  build(data, rows, rng, presort, lists);
  trained_ = true;
}

double RandomTree::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "RandomTree::train() must be called first");
  std::size_t idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.leaf)
      return (node.w_pos + 1.0) / (node.w_pos + node.w_neg + 2.0);
    HMD_INVARIANT(node.feature < x.size());
    idx = static_cast<std::size_t>(
        x[node.feature] <= node.threshold ? node.left : node.right);
  }
}

std::optional<ModelStructure> RandomTree::trained_structure() const {
  if (!trained_) return std::nullopt;
  return tree_ir(nodes_);
}

RandomForest::RandomForest(std::size_t trees, std::size_t features_per_split,
                           std::uint64_t seed)
    : trees_(trees), features_per_split_(features_per_split), seed_(seed) {
  HMD_REQUIRE(trees_ >= 1);
}

void RandomForest::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  members_.clear();
  Rng rng(seed_ ^ 0xF0135ULL);
  for (std::size_t t = 0; t < trees_; ++t) {
    Rng tree_rng = rng.fork(t);
    const Dataset sample = data.bootstrap(tree_rng);
    auto tree = std::make_unique<RandomTree>(features_per_split_, 1.0,
                                             mix64(seed_ + t));
    tree->train(sample);
    members_.push_back(std::move(tree));
  }
  trained_ = true;
}

double RandomForest::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "RandomForest::train() must be called first");
  double acc = 0.0;
  for (const auto& m : members_) acc += m->predict_proba(x);
  return acc / static_cast<double>(members_.size());
}

std::unique_ptr<Classifier> RandomForest::clone_untrained() const {
  return std::make_unique<RandomForest>(trees_, features_per_split_, seed_);
}

std::optional<ModelStructure> RandomForest::trained_structure() const {
  return ensemble_structure(EnsembleIr::Kind::kBagging, members_,
                            std::vector<double>(members_.size(), 1.0));
}

}  // namespace hmd::ml
