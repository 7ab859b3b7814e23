#include "ml/j48.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/discretize.h"  // binary_entropy
#include "support/check.h"

namespace hmd::ml {
namespace {

struct SplitCandidate {
  std::size_t feature = 0;
  double threshold = 0.0;
  double gain = 0.0;
  double gain_ratio = 0.0;
  bool valid = false;
};

/// Best binary split of the node on feature `f` by information gain,
/// honouring the minimum branch weight. Applies C4.5's log2(candidates)/W
/// penalty. `w_pos`/`w_neg` are the node's class weights (accumulated in
/// node-row order by the caller); the scan sequence comes from the presort
/// layer in canonical order.
SplitCandidate best_split_on_feature(const std::vector<std::size_t>& rows,
                                     std::size_t f, double min_leaf,
                                     double w_pos, double w_neg,
                                     Presort& presort,
                                     const Presort::Lists& lists) {
  std::vector<SweepItem>& items = presort.scratch();
  presort.gather(rows, lists, f, items);
  const double w_all = w_pos + w_neg;
  const double h_all = binary_entropy(w_pos, w_neg);

  SplitCandidate best;
  best.feature = f;
  std::size_t candidates = 0;
  double lp = 0.0, ln = 0.0;
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    (items[i].y == 1 ? lp : ln) += items[i].w;
    if (items[i + 1].v <= items[i].v) continue;
    const double wl = lp + ln;
    const double wr = w_all - wl;
    if (wl < min_leaf || wr < min_leaf) continue;
    ++candidates;
    const double rp = w_pos - lp, rn = w_neg - ln;
    const double cond = (wl / w_all) * binary_entropy(lp, ln) +
                        (wr / w_all) * binary_entropy(rp, rn);
    const double gain = h_all - cond;
    if (gain > best.gain) {
      best.gain = gain;
      best.threshold = (items[i].v + items[i + 1].v) / 2.0;
      // Split information for the gain ratio.
      const double pl = wl / w_all, pr = wr / w_all;
      const double split_info =
          -(pl * std::log2(pl) + pr * std::log2(pr));
      best.gain_ratio = split_info > 1e-9 ? gain / split_info : 0.0;
      best.valid = true;
    }
  }
  if (best.valid && candidates > 0) {
    // C4.5 charges numeric attributes for choosing among `candidates` cuts.
    best.gain -= std::log2(static_cast<double>(candidates)) / w_all;
    if (best.gain <= 0.0) best.valid = false;
  }
  return best;
}

}  // namespace

double normal_quantile(double p) {
  HMD_REQUIRE(p > 0.0 && p < 1.0);
  // Acklam's rational approximation, |relative error| < 1.15e-9.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425, phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

double c45_added_errors(double n, double e, double cf) {
  HMD_REQUIRE(n > 0.0 && e >= 0.0 && e <= n);
  HMD_REQUIRE(cf > 0.0 && cf < 1.0);
  // Mirrors weka.classifiers.trees.j48.Stats.addErrs.
  if (e < 1.0) {
    const double base = n * (1.0 - std::pow(cf, 1.0 / n));
    if (e == 0.0) return base;
    return base + e * (c45_added_errors(n, 1.0, cf) - base);
  }
  if (e + 0.5 >= n) return std::max(n - e, 0.0);
  const double z = normal_quantile(1.0 - cf);
  const double f = (e + 0.5) / n;
  const double r =
      (f + z * z / (2.0 * n) +
       z * std::sqrt(f / n - f * f / n + z * z / (4.0 * n * n))) /
      (1.0 + z * z / n);
  return r * n - e;
}

std::size_t J48::build(const Dataset& data, std::vector<std::size_t>& rows,
                       Presort& presort, Presort::Lists& lists) {
  Node node;
  for (std::size_t r : rows)
    (data.label(r) == 1 ? node.w_pos : node.w_neg) += data.weight(r);

  const double w_all = node.w_pos + node.w_neg;
  const bool pure = node.w_pos == 0.0 || node.w_neg == 0.0;
  if (pure || w_all < 2.0 * min_leaf_weight_) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  // First stage: gains for all features; second stage: best gain ratio
  // among features reaching the mean positive gain.
  std::vector<SplitCandidate> cands;
  double gain_sum = 0.0;
  std::size_t gain_n = 0;
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    SplitCandidate c = best_split_on_feature(
        rows, f, min_leaf_weight_, node.w_pos, node.w_neg, presort, lists);
    if (c.valid) {
      gain_sum += c.gain;
      ++gain_n;
    }
    cands.push_back(c);
  }
  if (gain_n == 0) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }
  const double mean_gain = gain_sum / static_cast<double>(gain_n);
  const SplitCandidate* best = nullptr;
  for (const SplitCandidate& c : cands) {
    if (!c.valid || c.gain + 1e-12 < mean_gain) continue;
    if (best == nullptr || c.gain_ratio > best->gain_ratio) best = &c;
  }
  if (best == nullptr) {
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  std::vector<std::size_t> left_rows, right_rows;
  const double* best_col = data.raw_column(best->feature).data();
  const std::uint32_t* map = data.row_map().data();
  for (std::size_t r : rows)
    (best_col[map[r]] <= best->threshold ? left_rows : right_rows).push_back(r);
  HMD_INVARIANT(!left_rows.empty() && !right_rows.empty());

  Presort::Lists left_lists, right_lists;
  presort.split_lists(lists, rows, best->feature, best->threshold,
                      &left_lists, &right_lists);

  node.leaf = false;
  node.feature = best->feature;
  node.threshold = best->threshold;
  nodes_.push_back(node);
  const std::size_t self = nodes_.size() - 1;
  rows.clear();
  rows.shrink_to_fit();  // release before recursing on large subsets
  lists = Presort::Lists{};
  const std::size_t left = build(data, left_rows, presort, left_lists);
  const std::size_t right = build(data, right_rows, presort, right_lists);
  nodes_[self].left = static_cast<std::int64_t>(left);
  nodes_[self].right = static_cast<std::int64_t>(right);
  return self;
}

double J48::prune_subtree(std::size_t idx) {
  Node& node = nodes_[idx];
  const double n = node.w_pos + node.w_neg;
  const double leaf_err = std::min(node.w_pos, node.w_neg);
  const double leaf_est =
      n > 0.0 ? leaf_err + c45_added_errors(n, leaf_err, confidence_) : 0.0;
  if (node.leaf) return leaf_est;

  const double subtree_est =
      prune_subtree(static_cast<std::size_t>(node.left)) +
      prune_subtree(static_cast<std::size_t>(node.right));
  if (leaf_est <= subtree_est + 0.1) {
    // Subtree replacement: this node becomes a leaf (children stay in the
    // arena but become unreachable; tree_ir walks from the root).
    node.leaf = true;
    node.left = node.right = -1;
    return leaf_est;
  }
  return subtree_est;
}

void J48::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  nodes_.clear();
  std::vector<std::size_t> rows(data.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(data);
  Presort::Lists lists = presort.make_lists(rows);
  // Our build appends the root first: index 0 is always the root.
  build(data, rows, presort, lists);
  if (prune_) prune_subtree(0);
  trained_ = true;
}

double J48::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "J48::train() must be called first");
  std::size_t idx = 0;
  for (;;) {
    const Node& node = nodes_[idx];
    if (node.leaf) {
      // Laplace-smoothed leaf probability.
      return (node.w_pos + 1.0) / (node.w_pos + node.w_neg + 2.0);
    }
    HMD_INVARIANT(node.feature < x.size());
    idx = static_cast<std::size_t>(
        x[node.feature] <= node.threshold ? node.left : node.right);
  }
}

std::size_t J48::depth_of(std::size_t idx) const {
  const Node& node = nodes_[idx];
  if (node.leaf) return 0;
  return 1 + std::max(depth_of(static_cast<std::size_t>(node.left)),
                      depth_of(static_cast<std::size_t>(node.right)));
}

std::size_t J48::leaves_of(std::size_t idx) const {
  const Node& node = nodes_[idx];
  if (node.leaf) return 1;
  return leaves_of(static_cast<std::size_t>(node.left)) +
         leaves_of(static_cast<std::size_t>(node.right));
}

std::size_t J48::num_leaves() const {
  HMD_REQUIRE(trained_);
  return leaves_of(0);
}

std::size_t J48::depth() const {
  HMD_REQUIRE(trained_);
  return depth_of(0);
}

std::optional<ModelStructure> J48::trained_structure() const {
  if (!trained_) return std::nullopt;
  return tree_ir(nodes_);
}

}  // namespace hmd::ml
