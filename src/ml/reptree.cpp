#include "ml/reptree.h"

#include "ml/discretize.h"  // binary_entropy
#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {

std::size_t RepTree::build(const Dataset& data,
                           std::vector<std::size_t>& rows, std::size_t depth,
                           Presort& presort, Presort::Lists& lists) {
  Node node;
  for (std::size_t r : rows)
    (data.label(r) == 1 ? node.w_pos : node.w_neg) += data.weight(r);
  const double w_all = node.w_pos + node.w_neg;
  const bool depth_stop = max_depth_ != 0 && depth >= max_depth_;
  if (node.w_pos == 0.0 || node.w_neg == 0.0 ||
      w_all < 2.0 * min_leaf_weight_ || depth_stop) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  // Plain information-gain split search (REPTree does not use gain ratio).
  const double h_all = binary_entropy(node.w_pos, node.w_neg);
  double best_gain = 1e-9;
  std::size_t best_f = 0;
  double best_thr = 0.0;
  std::vector<SweepItem>& items = presort.scratch();
  for (std::size_t f = 0; f < data.num_features(); ++f) {
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
  const std::size_t l = build(data, left_rows, depth + 1, presort, left_lists);
  const std::size_t r =
      build(data, right_rows, depth + 1, presort, right_lists);
  nodes_[self].left = static_cast<std::int64_t>(l);
  nodes_[self].right = static_cast<std::int64_t>(r);
  return self;
}

double RepTree::rep_prune(const Dataset& prune, std::size_t idx,
                          const std::vector<std::size_t>& rows) {
  Node& node = nodes_[idx];
  // Errors if this node were a leaf predicting its grow-set majority.
  const int majority = node.w_pos >= node.w_neg ? 1 : 0;
  double leaf_errors = 0.0;
  for (std::size_t r : rows)
    if (prune.label(r) != majority) leaf_errors += prune.weight(r);
  if (node.leaf) return leaf_errors;

  std::vector<std::size_t> left_rows, right_rows;
  for (std::size_t r : rows)
    (prune.row(r)[node.feature] <= node.threshold ? left_rows : right_rows)
        .push_back(r);
  const double subtree_errors =
      rep_prune(prune, static_cast<std::size_t>(node.left), left_rows) +
      rep_prune(prune, static_cast<std::size_t>(node.right), right_rows);
  if (leaf_errors <= subtree_errors) {
    node.leaf = true;
    node.left = node.right = -1;
    return leaf_errors;
  }
  return subtree_errors;
}

void RepTree::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  nodes_.clear();

  // Stratified grow/prune partition: folds 1..k-1 grow, fold 0 prunes.
  Rng rng(seed_);
  Dataset grow = data;
  Dataset prune;
  if (num_folds_ >= 2 && data.num_rows() >= 2 * num_folds_) {
    const auto folds = stratified_row_folds(data, num_folds_, rng);
    std::vector<std::size_t> grow_rows;
    for (std::size_t f = 1; f < folds.size(); ++f)
      grow_rows.insert(grow_rows.end(), folds[f].begin(), folds[f].end());
    grow = data.subset(grow_rows);
    prune = data.subset(folds[0]);
  }

  std::vector<std::size_t> rows(grow.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(grow);
  Presort::Lists lists = presort.make_lists(rows);
  build(grow, rows, 0, presort, lists);

  if (prune.num_rows() > 0) {
    std::vector<std::size_t> prune_rows(prune.num_rows());
    for (std::size_t i = 0; i < prune_rows.size(); ++i) prune_rows[i] = i;
    rep_prune(prune, 0, prune_rows);
  }
  trained_ = true;
}

double RepTree::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "RepTree::train() must be called first");
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


std::optional<ModelStructure> RepTree::trained_structure() const {
  if (!trained_) return std::nullopt;
  return tree_ir(nodes_);
}

}  // namespace hmd::ml
