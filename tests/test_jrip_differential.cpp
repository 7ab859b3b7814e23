// Differential test for JRip's training.
//
// ml::JRip::train evaluates rules column-wise: one pass per rule counts the
// leading conditions each row satisfies, pruning scores every truncation
// from that one pass, the optimisation pass keeps per-rule match bits and
// counts instead of rescanning the rule set, and the FOIL sweep skips
// log2 when an upper bound on the gain cannot beat the best. ReferenceJRip
// below is a test-local copy of the textbook learner: every rule is
// evaluated row by row with Rule::matches, every truncation separately,
// every candidate's gain with log2, and the optimisation pass rescans
// every rule for every row, twice per rule. Both learners consume the same
// random stream, so the tests demand identical rules, condition thresholds,
// precisions and default probability, compared bit for bit, over seeded
// random datasets, including views shaped like a drift refit (bootstrap
// views with repeated rows, fractional window weights, AdaBoost weights).
//
// JRipFoilBound checks the inequality the skip rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ios>
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
/// grid of `levels` steps (so ties occur; 0 keeps them continuous),
/// labelled positive inside
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
    for (std::size_t f = 0; f < features; ++f) {
      const double u = rng.uniform();
      x.push_back(levels > 0 ? std::floor(u * levels) / levels : u);
    }
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

/// How a case presents its dataset to the learners. The refit trains each
/// bag member on a bootstrap view of base rows plus window rows, and a
/// boosted member sees AdaBoost's normalised weights.
enum class View {
  kStorage,    ///< the dataset itself (identity row map)
  kBootstrap,  ///< a bootstrap view: non-identity row map, repeated rows
  kWindow,     ///< a bootstrap view with weight 0.3 past its first quarter
  kBoosted,    ///< weights shrunk by beta on ~70% of rows, then normalised
};

ml::Dataset view_of(const ml::Dataset& data, View view, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  if (view == View::kStorage) return data;
  if (view == View::kBoosted) {
    ml::Dataset out = data;
    std::vector<double> w(out.num_rows());
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = out.weight(i) * (rng.uniform() < 0.7 ? 0.2784 : 1.0);
    out.set_weights(std::move(w));
    out.normalize_weights();
    return out;
  }
  ml::Dataset out = data.bootstrap(rng);
  if (view == View::kWindow) {
    std::vector<double> w(out.num_rows(), 1.0);
    std::fill(w.begin() + static_cast<std::ptrdiff_t>(w.size() / 4), w.end(),
              0.3);
    out.set_weights(std::move(w));
  }
  return out;
}

struct DiffCase {
  std::string name;
  std::size_t rows, features, boxes;
  double flip;
  bool weighted;
  int levels;
  std::uint64_t seed;
  std::size_t min_rules;  ///< the case must exercise at least this many
  View view = View::kStorage;
};

void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class JRipDifferential : public testing::TestWithParam<DiffCase> {};

TEST_P(JRipDifferential, MatchesTheTextbookPassBitForBit) {
  const DiffCase& c = GetParam();
  const ml::Dataset data =
      view_of(random_dataset(c.rows, c.features, c.boxes, c.flip, c.weighted,
                             c.levels, c.seed),
              c.view, c.seed);
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
        DiffCase{"many_rules", 5000, 3, 10, 0.03, true, 100, 14, 21},
        DiffCase{"bootstrap", 3000, 4, 12, 0.03, false, 0, 21, 12,
                 View::kBootstrap},
        DiffCase{"window_weights", 3000, 4, 12, 0.03, false, 0, 22, 8,
                 View::kWindow},
        DiffCase{"boosted_weights", 3000, 4, 12, 0.03, true, 0, 23, 12,
                 View::kBoosted}),
    [](const testing::TestParamInfo<DiffCase>& tpi) {
      return tpi.param.name;
    });

// grow_rule skips log2 for a candidate whose bound is <= the best gain so
// far, which is exact only if both bounds are >= the computed gain for
// every p > 0, n >= 0. Triples cover q = 1 (n = 0), q a power of two, q
// near 0 (n up to 2^60·p) and base from 0 down to about -35.
TEST(JRipFoilBound, BoundsAreAtLeastTheComputedGainBitForBit) {
  Rng rng(2018);
  auto log_uniform = [&](double lo_exp, double hi_exp) {
    return std::exp2(rng.uniform(lo_exp, hi_exp));
  };
  for (int i = 0; i < 1'000'000; ++i) {
    const double p = i % 7 == 0 ? std::floor(log_uniform(1.0, 12.0))
                                : log_uniform(-10.0, 20.0);
    double n = 0.0;
    switch (i % 5) {
      case 0: n = 0.0; break;                                // q == 1
      case 1: n = p * std::exp2(std::floor(rng.uniform(0.0, 8.0))) - p; break;
      case 2: n = p * log_uniform(20.0, 60.0); break;        // q near 0
      default: n = log_uniform(-10.0, 20.0); break;
    }
    const double bp = log_uniform(-10.0, 20.0);
    const double bn = i % 11 == 0 ? 0.0 : log_uniform(-10.0, 25.0);
    const double base = std::log2(bp / (bp + bn));
    const double gain = ml::foil_gain(p, n, base);
    ASSERT_GE(p * (0.0 - base), gain)
        << std::hexfloat << "p=" << p << " n=" << n << " base=" << base;
    ASSERT_GE(ml::foil_gain_bound(p, n, base), gain)
        << std::hexfloat << "p=" << p << " n=" << n << " base=" << base;
  }
}

}  // namespace
}  // namespace hmd
