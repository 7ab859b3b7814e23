#include "hw/hls_codegen.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <variant>
#include <vector>

#include "support/check.h"

namespace hmd::hw {
namespace {

/// Fixed-point conversion of a real constant.
long long fx(double v, int fraction_bits) {
  return static_cast<long long>(
      std::llround(v * static_cast<double>(1LL << fraction_bits)));
}

struct Emitter {
  std::ostream& os;
  const HlsOptions& opt;
  int next_id = 0;

  std::string fresh(const char* stem) {
    return std::string(stem) + "_" + std::to_string(next_id++);
  }

  /// Emit a helper `int <name>(const int32_t x[])` for `ir` and return its
  /// name. With `proba` unset it returns the hard {0,1} decision; with
  /// `proba` set it returns P(malware) in Q(fraction_bits) fixed point —
  /// what Bagging members must expose so the ensemble can average
  /// probabilities exactly like Bagging::predict_proba().
  std::string emit(const ml::ModelIr& ir, bool proba) {
    return std::visit([&](const auto& s) { return emit(s, proba); },
                      ir.structure);
  }

  std::string emit(const ml::BucketRuleIr& rule, bool proba);
  std::string emit(const ml::TreeIr& tree, bool proba);
  std::string emit(const ml::RuleListIr& list, bool proba);
  std::string emit(const ml::LinearIr& linear, bool proba);
  std::string emit(const ml::EnsembleIr& ens, bool proba);
  /// MLP and BayesNet: hls_supported() rejects them before emission.
  template <typename Unsupported>
  std::string emit(const Unsupported&, bool) {
    throw PreconditionError(
        "HLS codegen does not support MLP or BayesNet structures");
  }
};

std::string Emitter::emit(const ml::BucketRuleIr& rule, bool proba) {
  const std::string name = fresh("oner");
  os << "static int " << name << "(const int32_t x[]) {\n"
     << "  const int32_t v = x[" << rule.feature << "];\n";
  const auto bucket_value = [&](double p) {
    return proba ? fx(p, opt.fraction_bits) : (p >= 0.5 ? 1LL : 0LL);
  };
  // Cascaded compares; strictly-below matches OneR's upper_bound bucket
  // assignment (a value equal to a boundary belongs to the bucket above).
  for (std::size_t b = 0; b < rule.cuts.size(); ++b)
    os << "  if (v < " << fx(rule.cuts[b], opt.fraction_bits)
       << "LL) return " << bucket_value(rule.proba[b]) << ";\n";
  os << "  return " << bucket_value(rule.proba.back()) << ";\n}\n\n";
  return name;
}

std::string Emitter::emit(const ml::TreeIr& tree, bool proba) {
  const std::string name = fresh("tree");
  const std::vector<ml::TreeNodeIr>& nodes = tree.nodes;
  // Iterative node walk (HLS-friendly: bounded loop, no recursion).
  os << "static int " << name << "(const int32_t x[]) {\n"
     << "  static const int32_t thr[" << nodes.size() << "] = {";
  for (std::size_t i = 0; i < nodes.size(); ++i)
    os << (i ? "," : "") << fx(nodes[i].leaf ? 0.0 : nodes[i].threshold,
                               opt.fraction_bits) << "LL";
  os << "};\n  static const int16_t feat[" << nodes.size() << "] = {";
  for (std::size_t i = 0; i < nodes.size(); ++i)
    os << (i ? "," : "")
       << (nodes[i].leaf ? -(nodes[i].proba >= 0.5 ? 2 : 1)
                         : static_cast<int>(nodes[i].feature));
  os << "};\n";
  if (proba) {
    os << "  static const int32_t prob[" << nodes.size() << "] = {";
    for (std::size_t i = 0; i < nodes.size(); ++i)
      os << (i ? "," : "")
         << fx(nodes[i].leaf ? nodes[i].proba : 0.0, opt.fraction_bits)
         << "LL";
    os << "};\n";
  }
  os << "  static const uint16_t kid[" << nodes.size() << "][2] = {";
  for (std::size_t i = 0; i < nodes.size(); ++i)
    os << (i ? "," : "") << "{" << nodes[i].left << "," << nodes[i].right
       << "}";
  os << "};\n"
     << "  uint16_t n = 0;\n"
     << "  for (int depth = 0; depth < " << nodes.size() << "; ++depth) {\n"
     << "    const int f = feat[n];\n";
  if (proba)
    os << "    if (f < 0) return prob[n];  /* leaf: P(malware) in Q"
       << opt.fraction_bits << " */\n";
  else
    os << "    if (f < 0) return -f - 1;  /* leaf: -1 benign, -2 malware */\n";
  os << "    n = kid[n][x[f] <= thr[n] ? 0 : 1];\n"
     << "  }\n  return 0;\n}\n\n";
  return name;
}

std::string Emitter::emit(const ml::RuleListIr& list, bool proba) {
  const std::string name = fresh("jrip");
  os << "static int " << name << "(const int32_t x[]) {\n";
  const auto outcome = [&](double p_malware) {
    return proba ? fx(p_malware, opt.fraction_bits)
                 : (p_malware >= 0.5 ? 1LL : 0LL);
  };
  for (const ml::RuleIr& rule : list.rules) {
    os << "  if (1";
    for (const ml::RuleConditionIr& cond : rule.conditions)
      os << " && x[" << cond.feature << "] " << (cond.leq ? "<=" : ">=")
         << " " << fx(cond.value, opt.fraction_bits) << "LL";
    os << ") return "
       << outcome(list.target_class == 1 ? rule.precision
                                         : 1.0 - rule.precision)
       << ";\n";
  }
  os << "  return " << outcome(list.default_proba)
     << ";  /* default class */\n"
     << "}\n\n";
  return name;
}

std::string Emitter::emit(const ml::LinearIr& linear, bool proba) {
  const std::string name = fresh("linear");
  // Fold the standardization into per-feature slope and a global offset:
  // margin = sum_f (w_f / sd_f) * x_f + (b - sum_f w_f * mu_f / sd_f).
  const std::vector<double>& w = linear.weights;
  std::vector<double> slopes(w.size());
  double offset = linear.bias;
  for (std::size_t f = 0; f < w.size(); ++f) {
    slopes[f] = w[f] / linear.stdev[f];
    offset -= w[f] * linear.mean[f] / linear.stdev[f];
  }
  // Standardized slopes on raw HPC counts are tiny; quantizing them at the
  // input scale would underflow every coefficient to zero, so the slopes
  // get their own (wider) fixed-point format.
  const int sb = linear_fixed_point_bits(slopes, offset, opt.fraction_bits);
  os << "static int " << name << "(const int32_t x[]) {\n"
     << "  /* slopes in Q" << sb << ", accumulator in Q"
     << (opt.fraction_bits + sb) << " */\n"
     << "  static const int64_t slope[" << w.size() << "] = {";
  for (std::size_t f = 0; f < slopes.size(); ++f)
    os << (f ? "," : "") << fx(slopes[f], sb) << "LL";
  os << "};\n"
     << "  int64_t acc = " << fx(offset, opt.fraction_bits + sb) << "LL;\n"
     << "  for (int f = 0; f < " << w.size() << "; ++f)\n"
     << "    acc += slope[f] * (int64_t)x[f];\n";
  if (proba)
    os << "  return acc >= 0 ? " << (1LL << opt.fraction_bits)
       << " : 0;\n}\n\n";
  else
    os << "  return acc >= 0 ? 1 : 0;\n}\n\n";
  return name;
}

std::string Emitter::emit(const ml::EnsembleIr& ens, bool proba) {
  const std::size_t n = ens.members.size();
  if (ens.kind == ml::EnsembleIr::Kind::kAdaBoost) {
    std::vector<std::string> members;
    std::vector<long long> alphas;
    for (std::size_t m = 0; m < n; ++m) {
      members.push_back(emit(ens.members[m], /*proba=*/false));
      alphas.push_back(fx(ens.member_raw_weights[m], opt.fraction_bits));
    }
    long long total = 0;
    for (long long a : alphas) total += a;
    const std::string name = fresh("adaboost");
    os << "static int " << name << "(const int32_t x[]) {\n"
       << "  int64_t vote = 0;\n";
    for (std::size_t m = 0; m < n; ++m)
      os << "  if (" << members[m] << "(x)) vote += " << alphas[m]
         << "LL;\n";
    if (proba && total > 0)
      os << "  return (int)((vote << " << opt.fraction_bits << ") / "
         << total << "LL);\n}\n\n";
    else if (proba)
      os << "  return " << (1LL << (opt.fraction_bits - 1))
         << ";  /* no informative members */\n}\n\n";
    else
      os << "  return 2 * vote >= " << total << "LL ? 1 : 0;\n}\n\n";
    return name;
  }
  // Bagging averages member *probabilities* (Bagging::predict_proba), so
  // members are emitted in their Q(fraction_bits) probability form rather
  // than as hard votes.
  std::vector<std::string> members;
  for (const ml::ModelIr& member : ens.members)
    members.push_back(emit(member, /*proba=*/true));
  const auto count = static_cast<long long>(n);
  const std::string name = fresh("bagging");
  os << "static int " << name << "(const int32_t x[]) {\n"
     << "  int64_t acc = 0;  /* sum of member P(malware), Q"
     << opt.fraction_bits << " */\n";
  for (const auto& member : members)
    os << "  acc += " << member << "(x);\n";
  if (proba)
    os << "  return (int)(acc / " << count << "LL);\n}\n\n";
  else
    os << "  return 2 * acc >= " << (count << opt.fraction_bits)
       << "LL ? 1 : 0;\n}\n\n";
  return name;
}

/// Whether the generator can emit a structure: anything but MLP and
/// BayesNet, with every ensemble non-empty and every member emittable.
struct Supported {
  bool operator()(const ml::EnsembleIr& ens) const {
    if (ens.members.empty()) return false;
    for (const ml::ModelIr& member : ens.members)
      if (!std::visit(*this, member.structure)) return false;
    return true;
  }
  bool operator()(const ml::MlpIr&) const { return false; }
  bool operator()(const ml::BayesNetIr&) const { return false; }
  bool operator()(const auto&) const { return true; }
};

}  // namespace

int linear_fixed_point_bits(std::span<const double> slopes, double offset,
                            int fraction_bits) {
  double max_abs = 0.0;
  for (double s : slopes) max_abs = std::max(max_abs, std::abs(s));
  // Widen while every quantized slope stays below 2^24 (comfortable int32
  // headroom) and the folded offset — encoded at fraction_bits + slope
  // bits — stays well inside int64. Cap keeps the accumulator products
  // (slope * 32-bit input) representable.
  int bits = fraction_bits;
  constexpr int kMaxBits = 46;
  while (bits < kMaxBits &&
         max_abs * std::ldexp(1.0, bits + 1) < std::ldexp(1.0, 24) &&
         std::abs(offset) * std::ldexp(1.0, fraction_bits + bits + 1) <
             std::ldexp(1.0, 62)) {
    ++bits;
  }
  return bits;
}

bool hls_supported(const ml::ModelIr& ir) {
  return std::visit(Supported{}, ir.structure);
}

void generate_hls_c(std::ostream& os, const ml::ModelIr& ir,
                    std::size_t num_inputs, const HlsOptions& options) {
  HMD_REQUIRE(num_inputs >= 1);
  HMD_REQUIRE_MSG(hls_supported(ir),
                  "HLS codegen does not support model: " + ir.name);

  // The generated file is self-contained C99.
  std::ostringstream body;
  Emitter emitter{body, options};
  const std::string top = emitter.emit(ir, /*proba=*/false);

  os << "/* Generated by hmd (DAC'18 HMD reproduction).\n"
     << " * Model: " << ir.name << "; inputs: " << num_inputs
     << " HPC counters, Q" << (32 - options.fraction_bits) << "."
     << options.fraction_bits << " fixed point.\n"
     << " * int " << options.function_name
     << "(const int32_t x[]) returns 1 = malware, 0 = benign.\n */\n"
     << "#include <stdint.h>\n\n"
     << body.str() << "int " << options.function_name
     << "(const int32_t x[" << num_inputs << "]) {\n  return " << top
     << "(x);\n}\n";
}

}  // namespace hmd::hw
