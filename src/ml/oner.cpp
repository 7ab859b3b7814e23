#include "ml/oner.h"

#include <algorithm>
#include <limits>

#include "ml/presort.h"
#include "support/check.h"

namespace hmd::ml {
namespace {

struct Rule {
  std::vector<double> cuts;
  std::vector<double> proba;
  double error = std::numeric_limits<double>::infinity();
};

/// Build the OneR bucket rule for one feature (Holte's algorithm) from the
/// value-sorted items: sweep sorted values; close a bucket once its majority
/// class has at least `min_bucket` weight and the next value differs; merge
/// adjacent buckets that predict the same class.
Rule build_rule(std::span<const SweepItem> s, double min_bucket) {
  struct Bucket {
    double pos = 0.0, neg = 0.0;
    double upper = 0.0;  ///< largest value in bucket
  };
  std::vector<Bucket> buckets;
  Bucket cur;
  for (std::size_t i = 0; i < s.size(); ++i) {
    (s[i].y == 1 ? cur.pos : cur.neg) += s[i].w;
    cur.upper = s[i].v;
    const bool boundary = i + 1 == s.size() || s[i + 1].v > s[i].v;
    const bool full = std::max(cur.pos, cur.neg) >= min_bucket;
    if (boundary && (full || i + 1 == s.size())) {
      buckets.push_back(cur);
      cur = Bucket{};
    }
  }
  if (buckets.empty()) return Rule{};

  // Merge trailing under-filled bucket and same-majority neighbours.
  std::vector<Bucket> merged;
  for (const Bucket& b : buckets) {
    if (!merged.empty()) {
      const bool same_class = (merged.back().pos >= merged.back().neg) ==
                              (b.pos >= b.neg);
      if (same_class) {
        merged.back().pos += b.pos;
        merged.back().neg += b.neg;
        merged.back().upper = b.upper;
        continue;
      }
    }
    merged.push_back(b);
  }

  Rule rule;
  double error = 0.0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Bucket& b = merged[i];
    const double total = b.pos + b.neg;
    rule.proba.push_back(total > 0.0 ? b.pos / total : 0.5);
    error += std::min(b.pos, b.neg);
    if (i + 1 < merged.size()) {
      rule.cuts.push_back(b.upper);  // boundary at the last covered value
    }
  }
  rule.error = error;
  return rule;
}

}  // namespace

void OneR::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  HMD_REQUIRE(data.num_features() >= 1);

  std::vector<std::size_t> rows(data.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(data);
  const Presort::Lists lists = presort.make_lists(rows);

  Rule best;
  std::size_t best_feature = 0;
  std::vector<SweepItem>& items = presort.scratch();
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    presort.gather(rows, lists, f, items);
    Rule rule = build_rule(items, min_bucket_weight_);
    if (rule.error < best.error) {
      best = std::move(rule);
      best_feature = f;
    }
  }
  HMD_INVARIANT(!best.proba.empty());
  feature_ = best_feature;
  cuts_ = std::move(best.cuts);
  proba_ = std::move(best.proba);
  trained_ = true;
}

double OneR::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "OneR::train() must be called first");
  HMD_REQUIRE(feature_ < x.size());
  const double v = x[feature_];
  const std::size_t bucket = static_cast<std::size_t>(
      std::upper_bound(cuts_.begin(), cuts_.end(), v) - cuts_.begin());
  return proba_[bucket];
}

std::optional<ModelStructure> OneR::trained_structure() const {
  if (!trained_) return std::nullopt;
  return BucketRuleIr{feature_, cuts_, proba_};
}

}  // namespace hmd::ml
