#include "ml/jrip.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>

#include "ml/presort.h"
#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {
namespace {

double log2_safe(double v) { return v <= 0.0 ? 0.0 : std::log2(v); }

/// Weighted (target, other) coverage of a condition set over `rows`.
struct Coverage {
  double p = 0.0;  ///< target-class weight covered
  double n = 0.0;  ///< other-class weight covered
};

Coverage coverage(const JRip::Rule& rule, const Dataset& data,
                  const std::vector<std::size_t>& rows, int target) {
  Coverage cov;
  for (std::size_t r : rows) {
    if (!rule.matches(data.row(r))) continue;
    (data.label(r) == target ? cov.p : cov.n) += data.weight(r);
  }
  return cov;
}

/// A fresh 2/3 grow | 1/3 prune split of `rows`, shuffled in place.
struct GrowPrune {
  std::vector<std::size_t> grow;
  std::vector<std::size_t> prune;
};

GrowPrune split_grow_prune(std::vector<std::size_t> rows, Rng& rng) {
  for (std::size_t i = rows.size(); i > 1; --i)
    std::swap(rows[i - 1], rows[rng.below(i)]);
  const auto cut = static_cast<std::ptrdiff_t>(rows.size() * 2 / 3);
  return {{rows.begin(), rows.begin() + cut}, {rows.begin() + cut, rows.end()}};
}

}  // namespace

JRip::Rule JRip::grow_rule(const Dataset& data,
                           const std::vector<std::size_t>& rows) const {
  Rule rule;
  std::vector<std::size_t> covered = rows;

  // Per-feature sorted lists of the grow set, built once per rule from the
  // storage's value-run cache and filtered in place as conditions accrue
  // (ties stay in grow-set order: the canonical order of ml/presort.h).
  Presort presort(data);
  Presort::Lists lists = presort.make_lists(covered);

  for (;;) {
    Coverage before;
    for (std::size_t r : covered)
      (data.label(r) == target_ ? before.p : before.n) += data.weight(r);
    if (before.n == 0.0 || before.p == 0.0) break;  // pure or hopeless
    const double base = log2_safe(before.p / (before.p + before.n));

    // Search all (feature, direction, threshold) conditions for best FOIL
    // gain using one sorted sweep per feature.
    double best_gain = 1e-9;
    Condition best{};
    std::vector<SweepItem>& items = presort.scratch();
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      presort.gather(covered, lists, f, items);
      double lp = 0.0, ln = 0.0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        (items[i].y == target_ ? lp : ln) += items[i].w;
        if (i + 1 < items.size() && items[i + 1].v <= items[i].v) continue;
        // Condition x <= v keeps the left mass; x >= next keeps the right.
        if (lp >= min_rule_weight_) {
          const double gain =
              lp * (log2_safe(lp / (lp + ln)) - base);
          if (gain > best_gain) {
            best_gain = gain;
            best = {f, true, items[i].v};
          }
        }
        const double rp = before.p - lp, rn = before.n - ln;
        if (i + 1 < items.size() && rp >= min_rule_weight_) {
          const double gain =
              rp * (log2_safe(rp / (rp + rn)) - base);
          if (gain > best_gain) {
            best_gain = gain;
            best = {f, false, items[i + 1].v};
          }
        }
      }
    }
    if (best_gain <= 1e-9) break;

    rule.conditions.push_back(best);
    const double* best_col = data.raw_column(best.feature).data();
    const std::uint32_t* map = data.row_map().data();
    std::size_t kept = 0;
    for (std::size_t r : covered) {
      const double v = best_col[map[r]];
      if (best.leq ? v <= best.value : v >= best.value) covered[kept++] = r;
    }
    covered.resize(kept);
    presort.filter_lists(&lists, best.feature, best.leq, best.value);
    if (covered.empty()) break;
  }
  return rule;
}

void JRip::prune_rule(Rule& rule, const Dataset& data,
                      const std::vector<std::size_t>& rows) const {
  if (rule.conditions.empty() || rows.empty()) return;
  // Evaluate every trailing truncation with the RIPPER pruning metric
  // (p - n) / (p + n); keep the best (ties favour the shorter rule).
  double best_value = -std::numeric_limits<double>::infinity();
  std::size_t best_len = rule.conditions.size();
  for (std::size_t len = rule.conditions.size(); len >= 1; --len) {
    Rule truncated;
    truncated.conditions.assign(rule.conditions.begin(),
                                rule.conditions.begin() + len);
    const Coverage cov = coverage(truncated, data, rows, target_);
    const double denom = cov.p + cov.n;
    const double value = denom > 0.0 ? (cov.p - cov.n) / denom : -1.0;
    if (value >= best_value) {  // >= prefers shorter rules on ties
      best_value = value;
      best_len = len;
    }
  }
  rule.conditions.resize(best_len);
}

double JRip::rule_dl(const Rule& rule, const Dataset& data,
                     const std::vector<std::size_t>& rows) const {
  // Description length = theory bits + exception bits (entropy
  // approximation of RIPPER's subset encoding).
  const double d = static_cast<double>(data.num_features());
  const double theory =
      static_cast<double>(rule.conditions.size()) * (log2_safe(d) + 8.0) + 1.0;

  Coverage cov = coverage(rule, data, rows, target_);
  double total_p = 0.0, total_n = 0.0;
  for (std::size_t r : rows)
    (data.label(r) == target_ ? total_p : total_n) += data.weight(r);
  const double covered = cov.p + cov.n;
  const double uncovered = (total_p + total_n) - covered;
  const double fp = cov.n;            // wrongly captured others
  const double fn = total_p - cov.p;  // missed targets
  auto subset_bits = [](double n, double k) {
    if (n <= 0.0 || k <= 0.0 || k >= n) return 0.0;
    const double q = k / n;
    return n * (-q * std::log2(q) - (1.0 - q) * std::log2(1.0 - q));
  };
  return theory + subset_bits(covered, fp) + subset_bits(uncovered, fn);
}

void JRip::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  rules_.clear();
  Rng rng(seed_);

  // RIPPER learns rules for the minority class; the other is the default.
  const double w_pos = data.positive_weight();
  const double w_all = data.total_weight();
  target_ = w_pos <= w_all - w_pos ? 1 : 0;

  std::vector<std::size_t> remaining(data.num_rows());
  for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;

  double best_dl = std::numeric_limits<double>::infinity();
  while (true) {
    double rem_p = 0.0;
    for (std::size_t r : remaining)
      if (data.label(r) == target_) rem_p += data.weight(r);
    if (rem_p < min_rule_weight_) break;

    // Fresh 2/3 grow | 1/3 prune split of the remaining rows.
    const GrowPrune split = split_grow_prune(remaining, rng);
    if (split.grow.empty()) break;

    Rule rule = grow_rule(data, split.grow);
    if (rule.conditions.empty()) break;
    prune_rule(rule, data, split.prune);

    // Stop when the rule is worse than random on the prune partition.
    const Coverage pcov = coverage(rule, data, split.prune, target_);
    if (pcov.p + pcov.n > 0.0 && pcov.p < pcov.n) break;

    // MDL stop: a rule set whose DL drifts 64 bits past the best is done.
    const double dl = rule_dl(rule, data, remaining);
    best_dl = std::min(best_dl, dl);
    if (dl > best_dl + 64.0) break;

    // Record the rule with its training precision.
    const Coverage cov = coverage(rule, data, remaining, target_);
    rule.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);
    rules_.push_back(rule);

    std::vector<std::size_t> still;
    still.reserve(remaining.size());
    for (std::size_t r : remaining)
      if (!rules_.back().matches(data.row(r))) still.push_back(r);
    if (still.size() == remaining.size()) break;  // no progress
    remaining = std::move(still);
  }

  // Optimisation passes: try a freshly grown replacement for each rule and
  // keep whichever rule set has the lower training error. Each pass is
  // O(R·n): `matching[i]` counts the rules matching row i, so swapping rule k
  // for a replacement changes a row's verdict only through the two rules'
  // own matches; `earlier[i]` marks rows captured by rules 0..k-1, which
  // leave rule k's scope. Both errors are summed over every row in index
  // order, so they are bit-identical to rescanning the whole rule set.
  const std::size_t n = data.num_rows();
  std::vector<std::uint32_t> matching(n);
  std::vector<std::uint8_t> earlier(n), in_k(n), in_replacement(n);
  auto matches_of = [&](const Rule& rule, std::vector<std::uint8_t>& out) {
    for (std::size_t i = 0; i < n; ++i) out[i] = rule.matches(data.row(i));
  };
  auto errors_if = [&](auto&& fires) {
    double errors = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const int pred = fires(i) ? target_ : 1 - target_;
      if (pred != data.label(i)) errors += data.weight(i);
    }
    return errors;
  };
  for (std::size_t pass = 0; pass < optimize_passes_ && !rules_.empty();
       ++pass) {
    std::fill(matching.begin(), matching.end(), 0u);
    for (const Rule& rule : rules_) {
      matches_of(rule, in_k);
      for (std::size_t i = 0; i < n; ++i) matching[i] += in_k[i];
    }
    std::fill(earlier.begin(), earlier.end(), std::uint8_t{0});
    for (std::size_t k = 0; k < rules_.size(); ++k) {
      // in_k still holds the matches of whichever rule stayed in slot k-1.
      if (k > 0)
        for (std::size_t i = 0; i < n; ++i) earlier[i] |= in_k[i];
      matches_of(rules_[k], in_k);

      // Rows not captured by earlier rules are this rule's jurisdiction.
      std::vector<std::size_t> scope;
      scope.reserve(static_cast<std::size_t>(
          std::count(earlier.begin(), earlier.end(), std::uint8_t{0})));
      for (std::size_t i = 0; i < n; ++i)
        if (!earlier[i]) scope.push_back(i);
      if (scope.empty()) continue;

      const GrowPrune split = split_grow_prune(std::move(scope), rng);
      if (split.grow.empty()) continue;
      Rule replacement = grow_rule(data, split.grow);
      prune_rule(replacement, data, split.prune);
      if (replacement.conditions.empty()) continue;
      // Precision over the scope, summed in row order.
      matches_of(replacement, in_replacement);
      Coverage cov;
      for (std::size_t i = 0; i < n; ++i)
        if (!earlier[i] && in_replacement[i])
          (data.label(i) == target_ ? cov.p : cov.n) += data.weight(i);
      replacement.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);

      const double err_before =
          errors_if([&](std::size_t i) { return matching[i] > 0; });
      const double err_after = errors_if([&](std::size_t i) {
        return matching[i] - in_k[i] + in_replacement[i] > 0;
      });
      if (err_after >= err_before) continue;
      rules_[k] = std::move(replacement);
      for (std::size_t i = 0; i < n; ++i)
        matching[i] = matching[i] - in_k[i] + in_replacement[i];
      in_k.swap(in_replacement);
    }
  }

  // Default (no rule fires) probability from the uncovered distribution.
  double up = 0.0, un = 0.0;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    bool fired = false;
    for (const Rule& r : rules_)
      if (r.matches(data.row(i))) {
        fired = true;
        break;
      }
    if (!fired) (data.label(i) == 1 ? up : un) += data.weight(i);
  }
  default_proba_ = (up + 1.0) / (up + un + 2.0);
  trained_ = true;
}

double JRip::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "JRip::train() must be called first");
  for (const Rule& rule : rules_) {
    if (rule.matches(x))
      return target_ == 1 ? rule.precision : 1.0 - rule.precision;
  }
  return default_proba_;
}

ModelComplexity JRip::complexity() const {
  HMD_REQUIRE(trained_);
  ModelComplexity mc;
  mc.kind = "rules";
  std::set<std::size_t> features;
  for (const Rule& rule : rules_) {
    mc.comparators += rule.conditions.size();
    for (const Condition& c : rule.conditions) features.insert(c.feature);
  }
  mc.table_entries = rules_.size() + 1;  // decision-list actions + default
  mc.depth = 1 + rules_.size();          // priority chain
  mc.inputs = features.size();
  return mc;
}

}  // namespace hmd::ml
