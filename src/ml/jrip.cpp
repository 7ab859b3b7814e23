#include "ml/jrip.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>

#include "ml/presort.h"
#include "support/check.h"
#include "support/rng.h"

namespace hmd::ml {
namespace {

double log2_safe(double v) { return v <= 0.0 ? 0.0 : std::log2(v); }

/// An upper bound on log2_safe(q) for 0 < q <= 1, from the exponent bits:
/// q = m·2^e with m in [0.5, 1), and ln m <= 2(m - 1)/(m + 1) for m <= 1.
/// The slack covers the rounding of this expression and of std::log2.
double log2_upper(double q) {
  const auto bits = std::bit_cast<std::uint64_t>(q);
  const auto e = static_cast<int>((bits >> 52) & 0x7ff) - 1022;
  const double m = std::bit_cast<double>(
      (bits & 0x000f'ffff'ffff'ffffULL) | (std::uint64_t{1022} << 52));
  constexpr double kTwoOverLn2 = 2.0 / std::numbers::ln2;
  constexpr double kSlack = 1e-9;
  return static_cast<double>(e) + kTwoOverLn2 * (m - 1.0) / (m + 1.0) +
         kSlack;
}

/// Weighted (target, other) weight of a row set.
struct Coverage {
  double p = 0.0;  ///< target-class weight
  double n = 0.0;  ///< other-class weight
};

/// depth[t] = how many leading conditions of `conds` rows[t] satisfies, so
/// depth[t] == conds.size() exactly when the rule covers rows[t]. Evaluated
/// one condition at a time down one storage column, reading only the rows
/// that satisfied every earlier condition.
std::vector<std::uint32_t> leading_depths(
    std::span<const JRip::Condition> conds, const Dataset& data,
    std::span<const std::size_t> rows) {
  std::vector<std::uint32_t> depth(rows.size(), 0);
  std::vector<std::uint32_t> alive(rows.size());
  std::iota(alive.begin(), alive.end(), std::uint32_t{0});
  const std::uint32_t* map = data.row_map().data();
  std::size_t live = rows.size();
  for (const JRip::Condition& c : conds) {
    const double* col = data.raw_column(c.feature).data();
    std::size_t kept = 0;
    auto advance = [&](auto satisfies) {
      for (std::size_t a = 0; a < live; ++a) {
        const std::uint32_t t = alive[a];
        const bool ok = satisfies(col[map[rows[t]]]);
        alive[kept] = t;
        kept += ok;
        depth[t] += ok;
      }
    };
    if (c.leq)
      advance([v = c.value](double x) { return x <= v; });
    else
      advance([v = c.value](double x) { return x >= v; });
    live = kept;
    if (live == 0) break;
  }
  return depth;
}

/// Class weights of rows[t] with depth[t] >= len, summed in row order.
Coverage weight_at_depth(const Dataset& data, std::span<const std::size_t> rows,
                         const std::vector<std::uint32_t>& depth,
                         std::size_t len, int target) {
  Coverage cov;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    if (depth[t] < len) continue;
    (data.label(rows[t]) == target ? cov.p : cov.n) += data.weight(rows[t]);
  }
  return cov;
}

/// The rows (in order) whose depth falls short of `len`: those the rule
/// does not cover.
std::vector<std::size_t> below_depth(std::span<const std::size_t> rows,
                                     const std::vector<std::uint32_t>& depth,
                                     std::size_t len) {
  std::vector<std::size_t> out;
  out.reserve(rows.size());
  for (std::size_t t = 0; t < rows.size(); ++t)
    if (depth[t] < len) out.push_back(rows[t]);
  return out;
}

/// Description length of a rule of `num_conditions` conditions that covers
/// `cov` of a row set weighing `total`: theory bits + exception bits
/// (entropy approximation of RIPPER's subset encoding).
double rule_dl(std::size_t num_conditions, std::size_t num_features,
               Coverage cov, Coverage total) {
  const double d = static_cast<double>(num_features);
  const double theory =
      static_cast<double>(num_conditions) * (log2_safe(d) + 8.0) + 1.0;
  const double covered = cov.p + cov.n;
  const double uncovered = (total.p + total.n) - covered;
  const double fp = cov.n;            // wrongly captured others
  const double fn = total.p - cov.p;  // missed targets
  auto subset_bits = [](double n, double k) {
    if (n <= 0.0 || k <= 0.0 || k >= n) return 0.0;
    const double q = k / n;
    return n * (-q * std::log2(q) - (1.0 - q) * std::log2(1.0 - q));
  };
  return theory + subset_bits(covered, fp) + subset_bits(uncovered, fn);
}

/// A fresh 2/3 grow | 1/3 prune split of a shuffled copy of some rows.
struct GrowPrune {
  std::vector<std::size_t> rows;  ///< shuffled; grow rows first
  std::size_t cut = 0;            ///< number of grow rows

  std::span<const std::size_t> grow() const { return {rows.data(), cut}; }
  std::span<const std::size_t> prune() const {
    return std::span<const std::size_t>(rows).subspan(cut);
  }
};

GrowPrune split_grow_prune(std::vector<std::size_t> rows, Rng& rng) {
  for (std::size_t i = rows.size(); i > 1; --i)
    std::swap(rows[i - 1], rows[rng.below(i)]);
  const std::size_t cut = rows.size() * 2 / 3;
  return {std::move(rows), cut};
}

/// Truncate `rule` to its best prefix on `rows` under the RIPPER pruning
/// metric (p - n) / (p + n), ties favouring the shorter rule, and return
/// the kept rule's coverage of `rows`. One depth pass scores every
/// truncation: a row of depth d is covered by the prefixes of length
/// 1..d, and each length's sums still run in row order.
Coverage prune_rule(JRip::Rule& rule, const Dataset& data,
                    std::span<const std::size_t> rows, int target) {
  if (rule.conditions.empty() || rows.empty()) return {};
  const std::size_t len_max = rule.conditions.size();
  const std::vector<std::uint32_t> depth =
      leading_depths(rule.conditions, data, rows);
  std::vector<Coverage> by_len(len_max + 1);
  for (std::size_t t = 0; t < rows.size(); ++t) {
    const bool is_target = data.label(rows[t]) == target;
    const double w = data.weight(rows[t]);
    for (std::size_t len = 1; len <= depth[t]; ++len)
      (is_target ? by_len[len].p : by_len[len].n) += w;
  }
  double best_value = -std::numeric_limits<double>::infinity();
  std::size_t best_len = len_max;
  for (std::size_t len = len_max; len >= 1; --len) {
    const Coverage& cov = by_len[len];
    const double denom = cov.p + cov.n;
    const double value = denom > 0.0 ? (cov.p - cov.n) / denom : -1.0;
    if (value >= best_value) {  // >= prefers shorter rules on ties
      best_value = value;
      best_len = len;
    }
  }
  rule.conditions.resize(best_len);
  return by_len[best_len];
}

/// Set bit rows[t] of `mask` for every row of depth >= len.
void set_covered(std::span<const std::size_t> rows,
                 const std::vector<std::uint32_t>& depth, std::size_t len,
                 std::uint64_t* mask) {
  for (std::size_t t = 0; t < rows.size(); ++t)
    if (depth[t] >= len)
      mask[rows[t] / 64] |= std::uint64_t{1} << (rows[t] % 64);
}

}  // namespace

double foil_gain(double p, double n, double base) {
  return p * (log2_safe(p / (p + n)) - base);
}

double foil_gain_bound(double p, double n, double base) {
  const double q = p / (p + n);
  return p * ((q > 0.0 ? log2_upper(q) : 0.0) - base);
}

JRip::Rule JRip::grow_rule(const Dataset& data,
                           std::span<const std::size_t> rows,
                           std::span<const std::uint8_t> in_target) const {
  Rule rule;
  std::vector<std::size_t> covered(rows.begin(), rows.end());

  // Per-feature sorted lists of the grow set, built once per rule from the
  // storage's value-run cache and filtered in place as conditions accrue
  // (ties stay in grow-set order: the canonical order of ml/presort.h).
  Presort presort(data);
  Presort::Lists lists = presort.make_lists(covered);
  const std::uint32_t* map = data.row_map().data();
  const double* weights = data.weights().data();
  std::vector<double> values;  // one feature's values, in its list's order
  values.reserve(covered.size());

  // Class weights of `covered`, in its order; refreshed as it shrinks.
  Coverage before;
  for (std::size_t r : covered)
    (in_target[r] != 0 ? before.p : before.n) += weights[r];
  for (;;) {
    if (before.n == 0.0 || before.p == 0.0) break;  // pure or hopeless
    const double base = log2_safe(before.p / (before.p + before.n));

    // Search all (feature, direction, threshold) conditions for best FOIL
    // gain using one sweep per feature down its sorted list, whose values
    // are gathered first. A candidate pays for log2 only when both bounds
    // of jrip.h say its gain could beat the best.
    double best_gain = 1e-9;
    Condition best{};
    auto offer = [&](double p, double n, const Condition& candidate) {
      if (p > 0.0 && n >= 0.0 &&
          (p * (0.0 - base) <= best_gain ||
           foil_gain_bound(p, n, base) <= best_gain))
        return;
      const double gain = foil_gain(p, n, base);
      if (gain > best_gain) {
        best_gain = gain;
        best = candidate;
      }
    };
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      const double* col = data.raw_column(f).data();
      const Presort::List& list = lists.per[f];
      const std::size_t m = list.size();
      values.resize(m);
      for (std::size_t i = 0; i < m; ++i) values[i] = col[map[list[i]]];
      double lp = 0.0, ln = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        // Branch-free class split: one sum receives the row's weight and
        // the other +0.0 (its bits masked off), and x + 0.0 == x for every
        // sum here, so both equal the branchy sums bit for bit.
        const std::uint32_t r = list[i];
        const auto w = std::bit_cast<std::uint64_t>(weights[r]);
        const std::uint64_t is_target =
            std::uint64_t{0} - std::uint64_t{in_target[r]};
        lp += std::bit_cast<double>(w & is_target);
        ln += std::bit_cast<double>(w & ~is_target);
        const bool last = i + 1 == m;
        if (!last && values[i + 1] <= values[i]) continue;
        // Condition x <= values[i] keeps the left mass; x >= values[i + 1]
        // keeps the right.
        if (lp >= min_rule_weight_) offer(lp, ln, {f, true, values[i]});
        const double rp = before.p - lp, rn = before.n - ln;
        if (!last && rp >= min_rule_weight_)
          offer(rp, rn, {f, false, values[i + 1]});
      }
    }
    if (best_gain <= 1e-9) break;

    rule.conditions.push_back(best);
    const double* best_col = data.raw_column(best.feature).data();
    std::size_t kept = 0;
    before = {};
    for (std::size_t r : covered) {
      const double v = best_col[map[r]];
      if (!(best.leq ? v <= best.value : v >= best.value)) continue;
      covered[kept++] = r;
      (in_target[r] != 0 ? before.p : before.n) += weights[r];
    }
    covered.resize(kept);
    presort.filter_lists(&lists, best.feature, best.leq, best.value);
    if (covered.empty()) break;
  }
  return rule;
}

void JRip::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  rules_.clear();
  Rng rng(seed_);

  // RIPPER learns rules for the minority class; the other is the default.
  const double w_pos = data.positive_weight();
  const double w_all = data.total_weight();
  target_ = w_pos <= w_all - w_pos ? 1 : 0;

  const std::size_t n = data.num_rows();
  auto all_rows = [n] {
    std::vector<std::size_t> rows(n);
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    return rows;
  };
  std::vector<std::size_t> remaining = all_rows();
  std::vector<std::uint8_t> in_target(n);  // row i is of the target class
  for (std::size_t i = 0; i < n; ++i) in_target[i] = data.label(i) == target_;

  double best_dl = std::numeric_limits<double>::infinity();
  while (true) {
    Coverage total;
    for (std::size_t r : remaining)
      (data.label(r) == target_ ? total.p : total.n) += data.weight(r);
    if (total.p < min_rule_weight_) break;

    // Fresh 2/3 grow | 1/3 prune split of the remaining rows.
    const GrowPrune split = split_grow_prune(remaining, rng);
    if (split.cut == 0) break;

    Rule rule = grow_rule(data, split.grow(), in_target);
    if (rule.conditions.empty()) break;
    const Coverage pcov = prune_rule(rule, data, split.prune(), target_);

    // Stop when the rule is worse than random on the prune partition.
    if (pcov.p + pcov.n > 0.0 && pcov.p < pcov.n) break;

    // MDL stop: a rule set whose DL drifts 64 bits past the best is done.
    const std::size_t len = rule.conditions.size();
    const std::vector<std::uint32_t> depth =
        leading_depths(rule.conditions, data, remaining);
    const Coverage cov = weight_at_depth(data, remaining, depth, len, target_);
    const double dl = rule_dl(len, data.num_features(), cov, total);
    best_dl = std::min(best_dl, dl);
    if (dl > best_dl + 64.0) break;

    // Record the rule with its training precision.
    rule.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);
    rules_.push_back(std::move(rule));

    std::vector<std::size_t> still = below_depth(remaining, depth, len);
    if (still.size() == remaining.size()) break;  // no progress
    remaining = std::move(still);
  }
  remaining = {};

  // Optimisation passes: try a freshly grown replacement for each rule and
  // keep whichever rule set has the lower training error. Each pass is
  // O(R·n): it evaluates every rule once into `masks`, one bit per rule and
  // row. Swapping rule k for a replacement changes a row's verdict only on
  // the rows that rules 0..k-1 (`earlier`) leave to k, and there only when
  // no later rule fires, so the replacement is evaluated on those rows
  // alone. A row errs when some rule fires and `wrong_fired` marks it, or
  // none does and `wrong_silent` marks it; the error sums those rows'
  // weights in index order, so it is bit-identical to rescanning the rule
  // set, and it changes only when a swap lands.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> wrong_fired(words), wrong_silent(words);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (data.label(i) != target_) wrong_fired[i / 64] |= bit;
    if (data.label(i) != 1 - target_) wrong_silent[i / 64] |= bit;
  }
  std::vector<std::uint64_t> masks, earlier(words), fired(words);
  // fired = earlier | the masks of rules `first`..R-1.
  auto fired_from = [&](std::size_t first) {
    fired = earlier;
    for (std::size_t j = first; j < rules_.size(); ++j)
      for (std::size_t w = 0; w < words; ++w) fired[w] |= masks[j * words + w];
  };
  auto errors = [&] {
    double sum = 0.0;
    for (std::size_t w = 0; w < words; ++w)
      for (std::uint64_t wrong = (fired[w] & wrong_fired[w]) |
                                 (~fired[w] & wrong_silent[w]);
           wrong != 0; wrong &= wrong - 1)
        sum += data.weight(w * 64 + static_cast<std::size_t>(
                                        std::countr_zero(wrong)));
    return sum;
  };
  for (std::size_t pass = 0; pass < optimize_passes_ && !rules_.empty();
       ++pass) {
    masks.assign(rules_.size() * words, 0);
    {
      const std::vector<std::size_t> rows = all_rows();
      for (std::size_t k = 0; k < rules_.size(); ++k)
        set_covered(rows, leading_depths(rules_[k].conditions, data, rows),
                    rules_[k].conditions.size(), &masks[k * words]);
    }
    std::fill(earlier.begin(), earlier.end(), std::uint64_t{0});
    fired_from(0);
    double err_before = errors();
    for (std::size_t k = 0; k < rules_.size(); ++k) {
      // Slot k-1's mask is exact on the rows left to it, and every other
      // row is already in `earlier`.
      if (k > 0)
        for (std::size_t w = 0; w < words; ++w)
          earlier[w] |= masks[(k - 1) * words + w];

      // Rows not captured by earlier rules are this rule's jurisdiction.
      // The list is rebuilt after growing, so growth holds one copy.
      auto scope_rows = [&] {
        std::vector<std::size_t> rows;
        for (std::size_t i = 0; i < n; ++i)
          if (((earlier[i / 64] >> (i % 64)) & 1U) == 0) rows.push_back(i);
        return rows;
      };
      Rule replacement;
      {
        const GrowPrune split = split_grow_prune(scope_rows(), rng);
        if (split.cut == 0) continue;
        replacement = grow_rule(data, split.grow(), in_target);
        prune_rule(replacement, data, split.prune(), target_);
      }
      if (replacement.conditions.empty()) continue;
      const std::vector<std::size_t> scope = scope_rows();
      const std::size_t len = replacement.conditions.size();
      const std::vector<std::uint32_t> depth =
          leading_depths(replacement.conditions, data, scope);
      // Precision over the scope, summed in row order.
      const Coverage cov = weight_at_depth(data, scope, depth, len, target_);
      replacement.precision = (cov.p + 1.0) / (cov.p + cov.n + 2.0);

      fired_from(k + 1);
      set_covered(scope, depth, len, fired.data());
      const double err_after = errors();
      if (err_after >= err_before) continue;
      rules_[k] = std::move(replacement);
      err_before = err_after;
      std::uint64_t* in_k = &masks[k * words];
      std::fill(in_k, in_k + words, std::uint64_t{0});
      set_covered(scope, depth, len, in_k);
    }
  }

  // Default (no rule fires) probability from the uncovered distribution.
  std::vector<std::size_t> open = all_rows();
  for (const Rule& rule : rules_)
    open = below_depth(open, leading_depths(rule.conditions, data, open),
                       rule.conditions.size());
  double up = 0.0, un = 0.0;
  for (std::size_t i : open)
    (data.label(i) == 1 ? up : un) += data.weight(i);
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

std::optional<ModelStructure> JRip::trained_structure() const {
  if (!trained_) return std::nullopt;
  RuleListIr ir;
  ir.target_class = target_;
  ir.default_proba = default_proba_;
  for (const Rule& rule : rules_) {
    RuleIr out;
    out.precision = rule.precision;
    for (const Condition& c : rule.conditions)
      out.conditions.push_back({c.feature, c.leq, c.value});
    ir.rules.push_back(std::move(out));
  }
  return ir;
}

}  // namespace hmd::ml
