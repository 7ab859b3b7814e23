#include "ml/bayesnet.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/check.h"

namespace hmd::ml {
namespace {

/// Class-conditional mutual information I(Xi; Xj | C) over discretized
/// attributes — the edge weight of the Chow–Liu tree used by TAN.
double conditional_mutual_information(const Dataset& data,
                                      const Discretizer& di, std::size_t fi,
                                      const Discretizer& dj, std::size_t fj) {
  const std::size_t bi = di.num_bins();
  const std::size_t bj = dj.num_bins();
  // joint[c][a][b], and marginals.
  std::vector<double> joint(2 * bi * bj, 0.0);
  std::vector<double> mi(2 * bi, 0.0), mj(2 * bj, 0.0);
  double cls[2] = {0.0, 0.0};
  double total = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const double w = data.weight(r);
    const int c = data.label(r);
    const std::size_t a = di.bin(data.row(r)[fi]);
    const std::size_t b = dj.bin(data.row(r)[fj]);
    joint[(c * bi + a) * bj + b] += w;
    mi[c * bi + a] += w;
    mj[c * bj + b] += w;
    cls[c] += w;
    total += w;
  }
  if (total <= 0.0) return 0.0;
  double info = 0.0;
  for (int c = 0; c < 2; ++c) {
    if (cls[c] <= 0.0) continue;
    for (std::size_t a = 0; a < bi; ++a) {
      for (std::size_t b = 0; b < bj; ++b) {
        const double pabc = joint[(c * bi + a) * bj + b] / total;
        if (pabc <= 0.0) continue;
        const double pac = mi[c * bi + a] / total;
        const double pbc = mj[c * bj + b] / total;
        const double pc = cls[c] / total;
        info += pabc * std::log((pabc * pc) / (pac * pbc));
      }
    }
  }
  return info / std::log(2.0);
}

}  // namespace

void BayesNet::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  HMD_REQUIRE(data.num_features() >= 1);
  const std::size_t nf = data.num_features();

  std::vector<int> labels;
  std::vector<double> weights;
  labels.reserve(data.num_rows());
  weights.reserve(data.num_rows());
  double w_pos = 0.0, w_neg = 0.0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    labels.push_back(data.label(i));
    weights.push_back(data.weight(i));
    (data.label(i) == 1 ? w_pos : w_neg) += data.weight(i);
  }
  const double total = w_pos + w_neg;
  log_prior_[0] = std::log((w_neg + alpha_) / (total + 2.0 * alpha_));
  log_prior_[1] = std::log((w_pos + alpha_) / (total + 2.0 * alpha_));

  cpts_.assign(nf, AttributeCpt{});
  for (std::size_t f = 0; f < nf; ++f) {
    const std::vector<double> col = data.column(f);
    cpts_[f].disc = mdl_discretize(col, labels, weights);
  }

  // TAN: maximum-spanning tree over conditional mutual information, rooted
  // at attribute 0 (Prim's algorithm); naive keeps every parent empty.
  if (structure_ == Structure::kTan && nf >= 2) {
    std::vector<bool> in_tree(nf, false);
    in_tree[0] = true;
    std::vector<double> best_w(nf, -1.0);
    std::vector<std::size_t> best_parent(nf, 0);
    for (std::size_t f = 1; f < nf; ++f) {
      best_w[f] =
          conditional_mutual_information(data, cpts_[0].disc, 0,
                                         cpts_[f].disc, f);
      best_parent[f] = 0;
    }
    for (std::size_t step = 1; step < nf; ++step) {
      std::size_t pick = nf;
      double pick_w = -1.0;
      for (std::size_t f = 0; f < nf; ++f)
        if (!in_tree[f] && best_w[f] > pick_w) {
          pick = f;
          pick_w = best_w[f];
        }
      if (pick == nf) break;
      in_tree[pick] = true;
      cpts_[pick].parent = best_parent[pick];
      for (std::size_t f = 0; f < nf; ++f) {
        if (in_tree[f]) continue;
        const double w = conditional_mutual_information(
            data, cpts_[pick].disc, pick, cpts_[f].disc, f);
        if (w > best_w[f]) {
          best_w[f] = w;
          best_parent[f] = pick;
        }
      }
    }
  }

  // Estimate the CPTs with Laplace smoothing.
  for (std::size_t f = 0; f < nf; ++f) {
    AttributeCpt& cpt = cpts_[f];
    const std::size_t bins = cpt.disc.num_bins();
    const std::size_t pbins =
        cpt.parent == kNoParent ? 1 : cpts_[cpt.parent].disc.num_bins();
    // counts[cls][pbin][bin]
    std::vector<std::vector<std::vector<double>>> counts(
        2, std::vector<std::vector<double>>(pbins,
                                            std::vector<double>(bins, 0.0)));
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      const int c = data.label(r);
      const std::size_t b = cpt.disc.bin(data.row(r)[f]);
      const std::size_t pb =
          cpt.parent == kNoParent
              ? 0
              : cpts_[cpt.parent].disc.bin(data.row(r)[cpt.parent]);
      counts[c][pb][b] += data.weight(r);
    }
    cpt.log_prob = counts;  // reuse shape
    for (int c = 0; c < 2; ++c) {
      for (std::size_t pb = 0; pb < pbins; ++pb) {
        const double row_total = std::accumulate(
            counts[c][pb].begin(), counts[c][pb].end(), 0.0);
        for (std::size_t b = 0; b < bins; ++b) {
          cpt.log_prob[c][pb][b] =
              std::log((counts[c][pb][b] + alpha_) /
                       (row_total + alpha_ * static_cast<double>(bins)));
        }
      }
    }
  }
  trained_ = true;
}

double BayesNet::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "BayesNet::train() must be called first");
  HMD_REQUIRE(x.size() == cpts_.size());
  double log_post[2] = {log_prior_[0], log_prior_[1]};
  for (std::size_t f = 0; f < cpts_.size(); ++f) {
    const AttributeCpt& cpt = cpts_[f];
    const std::size_t b = cpt.disc.bin(x[f]);
    const std::size_t pb =
        cpt.parent == kNoParent ? 0 : cpts_[cpt.parent].disc.bin(x[cpt.parent]);
    log_post[0] += cpt.log_prob[0][pb][b];
    log_post[1] += cpt.log_prob[1][pb][b];
  }
  // Normalise in log space.
  const double m = std::max(log_post[0], log_post[1]);
  const double e0 = std::exp(log_post[0] - m);
  const double e1 = std::exp(log_post[1] - m);
  return e1 / (e0 + e1);
}

std::optional<ModelStructure> BayesNet::trained_structure() const {
  if (!trained_) return std::nullopt;
  BayesNetIr ir;
  ir.log_prior[0] = log_prior_[0];
  ir.log_prior[1] = log_prior_[1];
  for (const AttributeCpt& cpt : cpts_)
    ir.cpts.push_back({cpt.disc.cuts(), cpt.parent, cpt.log_prob});
  return ir;
}

}  // namespace hmd::ml
