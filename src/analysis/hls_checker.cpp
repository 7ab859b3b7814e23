#include "analysis/hls_checker.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <regex>
#include <set>
#include <vector>

#include "analysis/fixed_backend.h"
#include "hw/hls_codegen.h"
#include "ml/infer.h"
#include "support/check.h"

namespace hmd::analysis {
namespace {

constexpr double kInt32Max = 2147483647.0;
constexpr double kInt64Max = 9223372036854775807.0;

/// Fixed-point conversion mirroring hw/hls_codegen's fx() exactly.
long long fx(double v, int fraction_bits) {
  return std::llround(v * static_cast<double>(1LL << fraction_bits));
}

/// The scaled value before rounding, for range checks that must not
/// invoke llround on values outside the long long range (UB).
double fx_scaled(double v, int fraction_bits) {
  return v * std::ldexp(1.0, fraction_bits);
}

void add(VerifyReport& report, Severity severity, std::string code,
         std::string message) {
  report.findings.push_back(
      {severity, std::move(code), std::move(message)});
}

// ---- textual lint -----------------------------------------------------

/// Replace /* ... */ comments with spaces; flags unterminated comments.
std::string strip_comments(const std::string& src, VerifyReport& report) {
  std::string out;
  out.reserve(src.size());
  std::size_t i = 0;
  while (i < src.size()) {
    if (src[i] == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) {
        add(report, Severity::kError, "hls-comment",
            "unterminated block comment");
        return out;
      }
      out.push_back(' ');
      i = end + 2;
      continue;
    }
    out.push_back(src[i++]);
  }
  return out;
}

void check_delimiters(const std::string& code, VerifyReport& report) {
  std::vector<char> stack;
  for (char c : code) {
    if (c == '(' || c == '{' || c == '[') {
      stack.push_back(c);
      continue;
    }
    const char open = c == ')' ? '(' : c == '}' ? '{' : c == ']' ? '[' : 0;
    if (open == 0) continue;
    if (stack.empty() || stack.back() != open) {
      add(report, Severity::kError, "hls-unbalanced",
          std::string("unbalanced '") + c + "'");
      return;
    }
    stack.pop_back();
  }
  if (!stack.empty())
    add(report, Severity::kError, "hls-unbalanced",
        std::string("unclosed '") + stack.back() + "'");
}

void check_preprocessor(const std::string& code, VerifyReport& report) {
  std::size_t pos = 0;
  while (pos < code.size()) {
    std::size_t eol = code.find('\n', pos);
    if (eol == std::string::npos) eol = code.size();
    std::size_t start = pos;
    while (start < eol && std::isspace(static_cast<unsigned char>(
                              code[start])) != 0)
      ++start;
    if (start < eol && code[start] == '#') {
      const std::string line = code.substr(start, eol - start);
      if (line != "#include <stdint.h>")
        add(report, Severity::kError, "hls-preprocessor",
            "directive outside the contract: " + line);
    }
    pos = eol + 1;
  }
}

bool parse_ll(const std::string& text, long long& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtoll(text.c_str(), &end, 10);
  return errno != ERANGE && end != text.c_str();
}

/// Calls, definitions, keywords, loop shapes: one pass over identifiers.
void check_calls_and_loops(const std::string& code, VerifyReport& report) {
  static const std::set<std::string> kKeywords = {
      "if", "return", "sizeof", "switch", "case", "else"};
  static const std::regex kCountedFor(
      R"(^\(\s*int\s+(\w+)\s*=\s*0\s*;\s*\1\s*<\s*\d+\s*;\s*\+\+\1\s*\))");

  std::set<std::string> defined;
  std::string current_function;
  std::string prev_token;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isalpha(static_cast<unsigned char>(c)) == 0 && c != '_') {
      ++i;
      continue;
    }
    std::size_t start = i;
    while (i < code.size() &&
           (std::isalnum(static_cast<unsigned char>(code[i])) != 0 ||
            code[i] == '_'))
      ++i;
    const std::string token = code.substr(start, i - start);

    if (token == "while" || token == "do") {
      add(report, Severity::kError, "hls-unbounded-loop",
          "'" + token + "' loop violates the bounded-loop contract");
      prev_token = token;
      continue;
    }
    if (token == "goto") {
      add(report, Severity::kError, "hls-goto",
          "'goto' violates the structured-control contract");
      prev_token = token;
      continue;
    }

    std::size_t next = i;
    while (next < code.size() &&
           std::isspace(static_cast<unsigned char>(code[next])) != 0)
      ++next;
    const bool called = next < code.size() && code[next] == '(';

    if (token == "for") {
      if (called) {
        std::smatch m;
        const std::string rest = code.substr(next);
        if (!std::regex_search(rest, m, kCountedFor))
          add(report, Severity::kError, "hls-unbounded-loop",
              "'for' loop is not the counted 0..N form the contract "
              "requires");
      }
    } else if (called && !kKeywords.contains(token)) {
      if (prev_token == "int") {
        defined.insert(token);
        current_function = token;
      } else if (token == current_function) {
        add(report, Severity::kError, "hls-recursion",
            "function '" + token + "' calls itself");
      } else if (!defined.contains(token)) {
        add(report, Severity::kError, "hls-unknown-call",
            "call to '" + token +
                "' which is not a previously defined local helper "
                "(libc call, forward reference, or mutual recursion)");
      }
    }
    prev_token = token;
  }
}

/// Constants compared against the int32 input vector, and int32 array
/// initializers, must be representable in int32.
void check_constant_ranges(const std::string& code, VerifyReport& report) {
  // Only comparisons against the int32 input vector (x[f], or the local
  // copy `v` the OneR emitter uses); int64 accumulator comparisons
  // (ensemble vote totals) may legitimately exceed int32.
  static const std::regex kCompare(
      R"((?:x\[\d+\]|\bv\b)\s*(?:<=|>=|<|>)\s*(-?\d+)LL)");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kCompare);
       it != std::sregex_iterator(); ++it) {
    long long v = 0;
    if (!parse_ll((*it)[1].str(), v) || v > 2147483647LL ||
        v < -2147483648LL)
      add(report, Severity::kError, "hls-const-range",
          "comparison constant " + (*it)[1].str() +
              "LL is not representable in int32");
  }
  static const std::regex kI32Array(
      R"(int32_t\s+\w+\[[^\]]*\]\s*=\s*\{([^}]*)\})");
  for (auto it = std::sregex_iterator(code.begin(), code.end(), kI32Array);
       it != std::sregex_iterator(); ++it) {
    const std::string list = (*it)[1].str();
    static const std::regex kLiteral(R"((-?\d+)LL)");
    for (auto lit = std::sregex_iterator(list.begin(), list.end(), kLiteral);
         lit != std::sregex_iterator(); ++lit) {
      long long v = 0;
      if (!parse_ll((*lit)[1].str(), v) || v > 2147483647LL ||
          v < -2147483648LL)
        add(report, Severity::kError, "hls-const-range",
            "int32 array initializer " + (*lit)[1].str() +
                "LL silently truncates");
    }
  }
}

// ---- structural fixed-point range check -------------------------------

class FixedPointRange {
 public:
  FixedPointRange(int fraction_bits, VerifyReport& report)
      : bits_(fraction_bits), report_(report) {}

  void check(const ml::ModelIr& ir, const std::string& ctx) {
    std::visit([&](const auto& s) { walk(s, ctx); }, ir.structure);
  }

 private:
  void flag(const std::string& ctx, const std::string& what, double v,
            int bits, double limit) {
    add(report_, Severity::kError, "fixed-point-range",
        (ctx.empty() ? what : ctx + ": " + what) + " = " +
            std::to_string(v) + " is not representable at Q" +
            std::to_string(bits) + " (|" + std::to_string(v) + " * 2^" +
            std::to_string(bits) + "| > " +
            (limit == kInt32Max ? std::string("int32 max")
                                : std::string("int64 max")) +
            ")");
  }

  void require_fits(const std::string& ctx, const std::string& what,
                    double v, int bits, double limit = kInt32Max) {
    if (!std::isfinite(v) || std::abs(fx_scaled(v, bits)) > limit)
      flag(ctx, what, v, bits, limit);
  }

  void walk(const ml::TreeIr& tree, const std::string& ctx) {
    for (std::size_t i = 0; i < tree.nodes.size(); ++i)
      if (!tree.nodes[i].leaf)
        require_fits(ctx, "split threshold of node " + std::to_string(i),
                     tree.nodes[i].threshold, bits_);
  }
  void walk(const ml::RuleListIr& rules, const std::string& ctx) {
    for (std::size_t r = 0; r < rules.rules.size(); ++r)
      for (const ml::RuleConditionIr& cond : rules.rules[r].conditions)
        require_fits(ctx, "rule " + std::to_string(r) + " bound",
                     cond.value, bits_);
  }
  void walk(const ml::BucketRuleIr& rule, const std::string& ctx) {
    for (double cut : rule.cuts)
      require_fits(ctx, "bucket boundary", cut, bits_);
  }
  void walk(const ml::LinearIr& linear, const std::string& ctx) {
    std::vector<double> slopes;
    double offset = linear.bias;
    for (std::size_t f = 0; f < linear.weights.size(); ++f) {
      if (f >= linear.stdev.size() || linear.stdev[f] == 0.0) continue;
      slopes.push_back(linear.weights[f] / linear.stdev[f]);
      if (f < linear.mean.size())
        offset -= linear.weights[f] * linear.mean[f] / linear.stdev[f];
    }
    // The generator widens the slope format (hw::linear_fixed_point_bits);
    // check at the format it actually emits.
    const int sb = hw::linear_fixed_point_bits(slopes, offset, bits_);
    for (std::size_t f = 0; f < slopes.size(); ++f)
      require_fits(ctx, "folded slope of feature " + std::to_string(f),
                   slopes[f], sb);
    // The offset initialises an int64 accumulator at input*slope scale.
    require_fits(ctx, "folded offset", offset, bits_ + sb, kInt64Max);
  }
  void walk(const ml::MlpIr&, const std::string&) {}
  void walk(const ml::BayesNetIr&, const std::string&) {}
  void walk(const ml::EnsembleIr& ens, const std::string& ctx) {
    for (std::size_t m = 0; m < ens.member_raw_weights.size(); ++m)
      require_fits(ctx, "vote weight of member " + std::to_string(m),
                   ens.member_raw_weights[m], bits_);
    for (std::size_t m = 0; m < ens.members.size(); ++m) {
      const std::string child_ctx =
          (ctx.empty() ? std::string{} : ctx + " / ") + "member " +
          std::to_string(m);
      check(ens.members[m], child_ctx);
    }
  }

  int bits_;
  VerifyReport& report_;
};

// ---- fixed-point mirror evaluation ------------------------------------

// Replicates the emitted arithmetic of hw/hls_codegen bit for bit: the
// decide visitor mirrors the hard-decision helpers, the proba visitor the
// Q(bits) probability helpers Bagging members use.

long long fixed_proba(const ml::ModelIr& ir, std::span<const std::int32_t> x,
                      int bits);

/// The branch both visitors share: which bucket/leaf/rule the probe lands
/// in. Returns the model-side P(malware) for that landing spot.
double landed_proba(const ml::BucketRuleIr& rule,
                    std::span<const std::int32_t> x, int bits) {
  HMD_REQUIRE(rule.feature < x.size());
  HMD_REQUIRE(rule.proba.size() == rule.cuts.size() + 1);
  const std::int32_t v = x[rule.feature];
  // Strictly-below: the model's upper_bound sends v == cut upward.
  for (std::size_t b = 0; b < rule.cuts.size(); ++b)
    if (v < fx(rule.cuts[b], bits)) return rule.proba[b];
  return rule.proba.back();
}

double landed_proba(const ml::TreeIr& tree, std::span<const std::int32_t> x,
                    int bits) {
  HMD_REQUIRE(!tree.nodes.empty());
  std::size_t n = 0;
  // Bounded walk exactly like the emitted loop: nodes.size() steps.
  for (std::size_t step = 0; step < tree.nodes.size(); ++step) {
    const ml::TreeNodeIr& node = tree.nodes[n];
    if (node.leaf) return node.proba;
    HMD_REQUIRE(node.feature < x.size());
    HMD_REQUIRE(node.left < tree.nodes.size() &&
                node.right < tree.nodes.size());
    n = x[node.feature] <= fx(node.threshold, bits) ? node.left
                                                    : node.right;
  }
  return 0.0;
}

double landed_proba(const ml::RuleListIr& rules,
                    std::span<const std::int32_t> x, int bits) {
  const int fire = rules.target_class;
  for (const ml::RuleIr& rule : rules.rules) {
    bool match = true;
    for (const ml::RuleConditionIr& cond : rule.conditions) {
      HMD_REQUIRE(cond.feature < x.size());
      const long long bound = fx(cond.value, bits);
      if (cond.leq ? x[cond.feature] > bound : x[cond.feature] < bound) {
        match = false;
        break;
      }
    }
    if (match) return fire == 1 ? rule.precision : 1.0 - rule.precision;
  }
  return rules.default_proba;
}

/// Sign of the emitted linear accumulator (>= 0 means malware).
bool linear_nonnegative(const ml::LinearIr& linear,
                        std::span<const std::int32_t> x, int bits) {
  HMD_REQUIRE(linear.weights.size() <= x.size());
  HMD_REQUIRE(linear.mean.size() == linear.weights.size() &&
              linear.stdev.size() == linear.weights.size());
  std::vector<double> slopes(linear.weights.size());
  double offset = linear.bias;
  for (std::size_t f = 0; f < linear.weights.size(); ++f) {
    HMD_REQUIRE(linear.stdev[f] != 0.0);
    slopes[f] = linear.weights[f] / linear.stdev[f];
    offset -= linear.weights[f] * linear.mean[f] / linear.stdev[f];
  }
  const int sb = hw::linear_fixed_point_bits(slopes, offset, bits);
  long long acc = fx(offset, bits + sb);
  for (std::size_t f = 0; f < slopes.size(); ++f)
    acc += fx(slopes[f], sb) * static_cast<long long>(x[f]);
  return acc >= 0;
}

struct FixedDecide {
  std::span<const std::int32_t> x;
  int bits;

  int operator()(const ml::BucketRuleIr& rule) const {
    return landed_proba(rule, x, bits) >= 0.5 ? 1 : 0;
  }
  int operator()(const ml::TreeIr& tree) const {
    return landed_proba(tree, x, bits) >= 0.5 ? 1 : 0;
  }
  int operator()(const ml::RuleListIr& rules) const {
    return landed_proba(rules, x, bits) >= 0.5 ? 1 : 0;
  }
  int operator()(const ml::LinearIr& linear) const {
    return linear_nonnegative(linear, x, bits) ? 1 : 0;
  }

  int operator()(const ml::MlpIr&) const {
    throw PreconditionError(
        "HLS differential check: MLP is not an HLS-supported structure");
  }
  int operator()(const ml::BayesNetIr&) const {
    throw PreconditionError(
        "HLS differential check: BayesNet is not an HLS-supported "
        "structure");
  }

  int operator()(const ml::EnsembleIr& ens) const {
    HMD_REQUIRE(!ens.members.empty());
    HMD_REQUIRE(ens.member_raw_weights.size() == ens.members.size());
    if (ens.kind == ml::EnsembleIr::Kind::kAdaBoost) {
      long long vote = 0, total = 0;
      for (std::size_t m = 0; m < ens.members.size(); ++m) {
        const long long alpha = fx(ens.member_raw_weights[m], bits);
        total += alpha;
        if (fixed_point_decide(ens.members[m], x, bits) == 1) vote += alpha;
      }
      return 2 * vote >= total ? 1 : 0;
    }
    // Bagging averages member probabilities, like Bagging::predict_proba
    // and the emitted acc-of-Q(bits)-probas helper.
    long long acc = 0;
    for (const ml::ModelIr& member : ens.members)
      acc += fixed_proba(member, x, bits);
    return 2 * acc >= (static_cast<long long>(ens.members.size()) << bits)
               ? 1
               : 0;
  }
};

struct FixedProba {
  std::span<const std::int32_t> x;
  int bits;

  long long operator()(const ml::BucketRuleIr& rule) const {
    return fx(landed_proba(rule, x, bits), bits);
  }
  long long operator()(const ml::TreeIr& tree) const {
    return fx(landed_proba(tree, x, bits), bits);
  }
  long long operator()(const ml::RuleListIr& rules) const {
    return fx(landed_proba(rules, x, bits), bits);
  }
  long long operator()(const ml::LinearIr& linear) const {
    return linear_nonnegative(linear, x, bits) ? (1LL << bits) : 0;
  }

  long long operator()(const ml::MlpIr&) const {
    throw PreconditionError(
        "HLS differential check: MLP is not an HLS-supported structure");
  }
  long long operator()(const ml::BayesNetIr&) const {
    throw PreconditionError(
        "HLS differential check: BayesNet is not an HLS-supported "
        "structure");
  }

  long long operator()(const ml::EnsembleIr& ens) const {
    HMD_REQUIRE(!ens.members.empty());
    HMD_REQUIRE(ens.member_raw_weights.size() == ens.members.size());
    if (ens.kind == ml::EnsembleIr::Kind::kAdaBoost) {
      long long vote = 0, total = 0;
      for (std::size_t m = 0; m < ens.members.size(); ++m) {
        const long long alpha = fx(ens.member_raw_weights[m], bits);
        total += alpha;
        if (fixed_point_decide(ens.members[m], x, bits) == 1) vote += alpha;
      }
      if (total <= 0) return 1LL << (bits - 1);
      return (vote << bits) / total;
    }
    long long acc = 0;
    for (const ml::ModelIr& member : ens.members)
      acc += fixed_proba(member, x, bits);
    return acc / static_cast<long long>(ens.members.size());
  }
};

long long fixed_proba(const ml::ModelIr& ir, std::span<const std::int32_t> x,
                      int bits) {
  return std::visit(FixedProba{x, bits}, ir.structure);
}

std::int32_t saturate_i32(long long v) {
  if (v > 2147483647LL) return 2147483647;
  if (v < -2147483648LL) return INT32_MIN;
  return static_cast<std::int32_t>(v);
}

}  // namespace

VerifyReport lint_hls_code(const std::string& c_source,
                           const HlsLintOptions& options) {
  (void)options;  // fraction_bits is reserved for scale-aware checks
  VerifyReport report;
  const std::string code = strip_comments(c_source, report);
  if (!report.ok()) return report;
  check_delimiters(code, report);
  check_preprocessor(code, report);
  check_calls_and_loops(code, report);
  check_constant_ranges(code, report);
  return report;
}

VerifyReport check_fixed_point_range(const ml::ModelIr& ir, int fraction_bits) {
  HMD_REQUIRE(fraction_bits >= 0 && fraction_bits < 31);
  VerifyReport report;
  FixedPointRange checker(fraction_bits, report);
  checker.check(ir, /*ctx=*/"");
  return report;
}

std::int32_t fixed_point_encode(double v, int fraction_bits) {
  return saturate_i32(fx(v, fraction_bits));
}

int fixed_point_decide(const ml::ModelIr& ir, std::span<const std::int32_t> x,
                       int fraction_bits) {
  return std::visit(FixedDecide{x, fraction_bits}, ir.structure);
}

DifferentialResult differential_check(const ml::Classifier& model,
                                      const ml::ModelIr& ir,
                                      const ml::Dataset& probes,
                                      const DifferentialOptions& options) {
  HMD_REQUIRE_MSG(probes.num_rows() > 0,
                  "differential check needs a non-empty probe set");
  // Both sides of the comparison are batched inference backends: the flat
  // engine stands in for predict_proba (bit-identical by contract, see
  // ml/infer.h), the fixed backend bit-simulates the generated C. This
  // turned the lint's hottest loop from two pointer walks per probe row
  // into two contiguous batch sweeps.
  const FixedPointBackend mirror(ir, options.fraction_bits);
  const auto live = ml::make_backend(model, ml::InferBackendKind::kFlat);
  const std::vector<double> live_scores = live->predict_proba_batch(probes);
  const std::vector<double> mirror_scores =
      mirror.predict_proba_batch(probes);

  DifferentialResult result;
  result.probes = probes.num_rows();
  for (std::size_t i = 0; i < probes.num_rows(); ++i) {
    const int live_decision =
        live_scores[i] >= ml::kDecisionThreshold ? 1 : 0;
    const int mirror_decision =
        mirror_scores[i] >= ml::kDecisionThreshold ? 1 : 0;
    if (mirror_decision != live_decision) ++result.mismatches;
  }
  result.ok = result.mismatch_rate() <= options.max_mismatch_rate;
  return result;
}

}  // namespace hmd::analysis
