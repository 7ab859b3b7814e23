// Differential test for JRip's optimisation pass.
//
// ml::JRip::train runs its optimisation passes in O(R·n) per pass: a
// per-row count of matching rules and a running "captured by an earlier
// rule" flag replace the two full rule-set rescans per rule of the
// textbook pass. ReferenceJRip below is a test-local copy of the learner
// with the textbook pass (rescan every rule for every row, twice per rule,
// plus an O(k·n) scope rescan). Rule growth, pruning and the MDL stop are
// copied unchanged, so the two learners consume the same random stream and
// differ only in how the pass finds its answer. The tests demand
// identical rules, condition thresholds, precisions and default
// probability, compared bit for bit, over seeded random datasets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/jrip.h"
#include "ml/presort.h"
#include "support/rng.h"

namespace hmd {
namespace {

using Rule = ml::JRip::Rule;
using Condition = ml::JRip::Condition;

double log2_safe(double v) { return v <= 0.0 ? 0.0 : std::log2(v); }

struct Coverage {
  double p = 0.0;
  double n = 0.0;
};

Coverage coverage(const Rule& rule, const ml::Dataset& data,
                  const std::vector<std::size_t>& rows, int target) {
  Coverage cov;
  for (std::size_t r : rows) {
    if (!rule.matches(data.row(r))) continue;
    (data.label(r) == target ? cov.p : cov.n) += data.weight(r);
  }
  return cov;
}

/// The learner with the textbook optimisation pass. Same defaults as
/// ml::JRip (2 passes, min rule weight 2, seed 1).
struct ReferenceJRip {
  std::size_t optimize_passes = 2;
  double min_rule_weight = 2.0;
  std::uint64_t seed = 1;

  int target = 1;
  std::vector<Rule> rules;
  double default_proba = 0.5;

  Rule grow_rule(const ml::Dataset& data,
                 const std::vector<std::size_t>& rows) const {
    Rule rule;
    std::vector<std::size_t> covered = rows;
    ml::Presort presort(data);
    ml::Presort::Lists lists = presort.make_lists(covered);
    for (;;) {
      Coverage before;
      for (std::size_t r : covered)
        (data.label(r) == target ? before.p : before.n) += data.weight(r);
      if (before.n == 0.0 || before.p == 0.0) break;
      const double base = log2_safe(before.p / (before.p + before.n));
      double best_gain = 1e-9;
      Condition best{};
      std::vector<ml::SweepItem>& items = presort.scratch();
      for (std::size_t f = 0; f < data.num_features(); ++f) {
        presort.gather(covered, lists, f, items);
        double lp = 0.0, ln = 0.0;
        for (std::size_t i = 0; i < items.size(); ++i) {
          (items[i].y == target ? lp : ln) += items[i].w;
          if (i + 1 < items.size() && items[i + 1].v <= items[i].v) continue;
          if (lp >= min_rule_weight) {
            const double gain = lp * (log2_safe(lp / (lp + ln)) - base);
            if (gain > best_gain) {
              best_gain = gain;
              best = {f, true, items[i].v};
            }
          }
          const double rp = before.p - lp, rn = before.n - ln;
          if (i + 1 < items.size() && rp >= min_rule_weight) {
            const double gain = rp * (log2_safe(rp / (rp + rn)) - base);
            if (gain > best_gain) {
              best_gain = gain;
              best = {f, false, items[i + 1].v};
            }
          }
        }
      }
      if (best_gain <= 1e-9) break;
      rule.conditions.push_back(best);
      std::vector<std::size_t> still;
      for (std::size_t r : covered)
        if (best.matches(data.row(r))) still.push_back(r);
      covered = std::move(still);
      presort.filter_lists(&lists, best.feature, best.leq, best.value);
      if (covered.empty()) break;
    }
    return rule;
  }

  void prune_rule(Rule& rule, const ml::Dataset& data,
                  const std::vector<std::size_t>& rows) const {
    if (rule.conditions.empty() || rows.empty()) return;
    double best_value = -std::numeric_limits<double>::infinity();
    std::size_t best_len = rule.conditions.size();
    for (std::size_t len = rule.conditions.size(); len >= 1; --len) {
      Rule truncated;
      truncated.conditions.assign(rule.conditions.begin(),
                                  rule.conditions.begin() + len);
      const Coverage cov = coverage(truncated, data, rows, target);
      const double denom = cov.p + cov.n;
      const double value = denom > 0.0 ? (cov.p - cov.n) / denom : -1.0;
      if (value >= best_value) {
        best_value = value;
        best_len = len;
      }
    }
    rule.conditions.resize(best_len);
  }

  double rule_dl(const Rule& rule, const ml::Dataset& data,
                 const std::vector<std::size_t>& rows) const {
    const double d = static_cast<double>(data.num_features());
    const double theory =
        static_cast<double>(rule.conditions.size()) * (log2_safe(d) + 8.0) +
        1.0;
    Coverage cov = coverage(rule, data, rows, target);
    double total_p = 0.0, total_n = 0.0;
    for (std::size_t r : rows)
      (data.label(r) == target ? total_p : total_n) += data.weight(r);
    const double covered = cov.p + cov.n;
    const double uncovered = (total_p + total_n) - covered;
    const double fp = cov.n;
    const double fn = total_p - cov.p;
    auto subset_bits = [](double n, double k) {
      if (n <= 0.0 || k <= 0.0 || k >= n) return 0.0;
      const double q = k / n;
      return n * (-q * std::log2(q) - (1.0 - q) * std::log2(1.0 - q));
    };
    return theory + subset_bits(covered, fp) + subset_bits(uncovered, fn);
  }

  void train(const ml::Dataset& data) {
    rules.clear();
    Rng rng(seed);
    const double w_pos = data.positive_weight();
    const double w_all = data.total_weight();
    target = w_pos <= w_all - w_pos ? 1 : 0;

    std::vector<std::size_t> remaining(data.num_rows());
    for (std::size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
    double best_dl = std::numeric_limits<double>::infinity();
    while (true) {
      double rem_p = 0.0;
      for (std::size_t r : remaining)
        if (data.label(r) == target) rem_p += data.weight(r);
      if (rem_p < min_rule_weight) break;
      std::vector<std::size_t> shuffled = remaining;
      for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
      const std::size_t cut = shuffled.size() * 2 / 3;
      std::vector<std::size_t> grow_rows(shuffled.begin(),
                                         shuffled.begin() + cut);
      std::vector<std::size_t> prune_rows(shuffled.begin() + cut,
                                          shuffled.end());
      if (grow_rows.empty()) break;
      Rule rule = grow_rule(data, grow_rows);
      if (rule.conditions.empty()) break;
      prune_rule(rule, data, prune_rows);
      const Coverage pcov = coverage(rule, data, prune_rows, target);
      if (pcov.p + pcov.n > 0.0 && pcov.p < pcov.n) break;
      const double dl = rule_dl(rule, data, remaining);
      best_dl = std::min(best_dl, dl);
      if (dl > best_dl + 64.0) break;
      const Coverage cov = coverage(rule, data, remaining, target);
      rule.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);
      rules.push_back(rule);
      std::vector<std::size_t> still;
      for (std::size_t r : remaining)
        if (!rules.back().matches(data.row(r))) still.push_back(r);
      if (still.size() == remaining.size()) break;
      remaining = std::move(still);
    }

    // The textbook optimisation pass: O(R^2 n) per pass.
    auto ruleset_errors = [&](const std::vector<Rule>& set) {
      double errors = 0.0;
      for (std::size_t i = 0; i < data.num_rows(); ++i) {
        bool fired = false;
        for (const Rule& r : set)
          if (r.matches(data.row(i))) {
            fired = true;
            break;
          }
        const int pred = fired ? target : 1 - target;
        if (pred != data.label(i)) errors += data.weight(i);
      }
      return errors;
    };
    for (std::size_t pass = 0; pass < optimize_passes && !rules.empty();
         ++pass) {
      for (std::size_t k = 0; k < rules.size(); ++k) {
        std::vector<std::size_t> scope;
        for (std::size_t i = 0; i < data.num_rows(); ++i) {
          bool earlier = false;
          for (std::size_t j = 0; j < k; ++j)
            if (rules[j].matches(data.row(i))) {
              earlier = true;
              break;
            }
          if (!earlier) scope.push_back(i);
        }
        if (scope.empty()) continue;
        std::vector<std::size_t> shuffled = scope;
        for (std::size_t i = shuffled.size(); i > 1; --i)
          std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
        const std::size_t cut = shuffled.size() * 2 / 3;
        std::vector<std::size_t> grow_rows(shuffled.begin(),
                                           shuffled.begin() + cut);
        std::vector<std::size_t> prune_rows(shuffled.begin() + cut,
                                            shuffled.end());
        if (grow_rows.empty()) continue;
        Rule replacement = grow_rule(data, grow_rows);
        prune_rule(replacement, data, prune_rows);
        if (replacement.conditions.empty()) continue;
        const Coverage cov = coverage(replacement, data, scope, target);
        replacement.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);
        const double err_before = ruleset_errors(rules);
        const Rule original = rules[k];
        rules[k] = replacement;
        const double err_after = ruleset_errors(rules);
        if (err_after >= err_before) rules[k] = original;
      }
    }

    double up = 0.0, un = 0.0;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      bool fired = false;
      for (const Rule& r : rules)
        if (r.matches(data.row(i))) {
          fired = true;
          break;
        }
      if (!fired) (data.label(i) == 1 ? up : un) += data.weight(i);
    }
    default_proba = (up + 1.0) / (up + un + 2.0);
  }
};

/// Seeded random dataset: `features` uniform columns, values snapped to a
/// grid of `levels` steps (so ties occur), labelled positive inside
/// `boxes` random boxes, each a small interval on two random features,
/// with `flip` of the labels flipped. `weighted` draws row weights in
/// [0.25, 3).
ml::Dataset random_dataset(std::size_t rows, std::size_t features,
                           std::size_t boxes, double flip, bool weighted,
                           int levels, std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < features; ++f)
    names.push_back("f" + std::to_string(f));
  ml::Dataset data(std::move(names));
  Rng rng(seed);
  struct Box {
    std::size_t f[2];
    double lo[2], hi[2];
  };
  std::vector<Box> box(boxes);
  for (Box& b : box)
    for (int j = 0; j < 2; ++j) {
      b.f[j] = rng.below(features);
      b.lo[j] = rng.uniform(0.0, 0.8);
      b.hi[j] = b.lo[j] + rng.uniform(0.1, 0.3);
    }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> x;
    for (std::size_t f = 0; f < features; ++f)
      x.push_back(std::floor(rng.uniform() * levels) / levels);
    bool inside = false;
    for (const Box& b : box) {
      bool in_box = true;
      for (int j = 0; j < 2; ++j)
        in_box = in_box && x[b.f[j]] >= b.lo[j] && x[b.f[j]] <= b.hi[j];
      inside = inside || in_box;
    }
    int label = inside ? 1 : 0;
    if (rng.uniform() < flip) label = 1 - label;
    const double w = weighted ? rng.uniform(0.25, 3.0) : 1.0;
    data.add_row(std::move(x), label, w, r / 16);
  }
  return data;
}

struct DiffCase {
  std::string name;
  std::size_t rows, features, boxes;
  double flip;
  bool weighted;
  int levels;
  std::uint64_t seed;
  std::size_t min_rules;  ///< the case must exercise at least this many
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class JRipDifferential : public testing::TestWithParam<DiffCase> {};

TEST_P(JRipDifferential, MatchesTheTextbookPassBitForBit) {
  const DiffCase& c = GetParam();
  const ml::Dataset data = random_dataset(c.rows, c.features, c.boxes, c.flip,
                                          c.weighted, c.levels, c.seed);
  for (const std::uint64_t seed : {std::uint64_t{1}, c.seed}) {
    ReferenceJRip ref;
    ref.seed = seed;
    ref.train(data);
    ml::JRip jrip(2, 2.0, seed);
    jrip.train(data);

    ASSERT_GE(ref.rules.size(), c.min_rules) << "case lost its coverage";
    EXPECT_EQ(jrip.target_class(), ref.target);
    ASSERT_EQ(jrip.num_rules(), ref.rules.size());
    for (std::size_t k = 0; k < ref.rules.size(); ++k) {
      const Rule& a = jrip.rules()[k];
      const Rule& b = ref.rules[k];
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.precision),
                std::bit_cast<std::uint64_t>(b.precision))
          << "rule " << k;
      ASSERT_EQ(a.conditions.size(), b.conditions.size()) << "rule " << k;
      for (std::size_t j = 0; j < b.conditions.size(); ++j) {
        EXPECT_EQ(a.conditions[j].feature, b.conditions[j].feature);
        EXPECT_EQ(a.conditions[j].leq, b.conditions[j].leq);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.conditions[j].value),
                  std::bit_cast<std::uint64_t>(b.conditions[j].value));
      }
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(jrip.default_proba()),
              std::bit_cast<std::uint64_t>(ref.default_proba));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededData, JRipDifferential,
    testing::Values(
        DiffCase{"clean", 300, 4, 2, 0.0, false, 50, 11, 1},
        DiffCase{"unweighted", 2000, 3, 25, 0.0, false, 100, 3, 5},
        DiffCase{"weighted", 2000, 3, 25, 0.03, true, 100, 4, 5},
        DiffCase{"ties", 800, 3, 10, 0.03, true, 4, 5, 1},
        DiffCase{"many_rules", 5000, 3, 10, 0.03, true, 100, 14, 21}),
    [](const testing::TestParamInfo<DiffCase>& tpi) {
      return tpi.param.name;
    });

}  // namespace
}  // namespace hmd
