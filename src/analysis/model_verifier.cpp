#include "analysis/model_verifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "support/check.h"

namespace hmd::analysis {

std::size_t VerifyReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

std::size_t VerifyReport::warning_count() const {
  return findings.size() - error_count();
}

std::string VerifyReport::to_string() const {
  std::ostringstream os;
  for (const Finding& f : findings)
    os << (f.severity == Severity::kError ? "ERROR" : "WARNING") << "["
       << f.code << "] " << f.message << "\n";
  return os.str();
}

namespace {

/// Tolerance of the probability-sum checks (CPT rows, priors).
constexpr double kDistributionTolerance = 1e-6;

bool finite(double v) { return std::isfinite(v); }

bool valid_proba(double v) { return finite(v) && v >= 0.0 && v <= 1.0; }

class Verifier {
 public:
  VerifyReport take_report() { return std::move(report_); }

  void verify(const ml::ModelIr& ir, const std::string& context) {
    std::visit([&](const auto& s) { check_structure(s, context); },
               ir.structure);
  }

 private:
  void add(Severity severity, std::string code, const std::string& context,
           const std::string& message) {
    report_.findings.push_back(
        {severity, std::move(code),
         context.empty() ? message : context + ": " + message});
  }
  void error(std::string code, const std::string& context,
             const std::string& message) {
    add(Severity::kError, std::move(code), context, message);
  }
  void warn(std::string code, const std::string& context,
            const std::string& message) {
    add(Severity::kWarning, std::move(code), context, message);
  }

  // ---- tree ----------------------------------------------------------

  void check_structure(const ml::TreeIr& tree, const std::string& ctx) {
    const std::size_t n = tree.nodes.size();
    if (n == 0) {
      error("tree-empty", ctx, "tree has no nodes");
      return;
    }

    std::vector<std::size_t> indegree(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const ml::TreeNodeIr& node = tree.nodes[i];
      if (node.leaf) {
        if (!valid_proba(node.proba))
          error("tree-leaf-proba", ctx,
                "leaf node " + std::to_string(i) +
                    " class distribution is invalid (P(malware) = " +
                    std::to_string(node.proba) +
                    " is not a probability, so P(malware) + P(benign) "
                    "cannot sum to 1)");
        continue;
      }
      if (!finite(node.threshold))
        error("tree-threshold", ctx,
              "internal node " + std::to_string(i) +
                  " has a non-finite split threshold");
      if (node.left >= n || node.right >= n) {
        error("tree-child-range", ctx,
              "internal node " + std::to_string(i) +
                  " references a child outside the node array");
        continue;
      }
      if (node.left == node.right)
        warn("tree-degenerate-split", ctx,
             "internal node " + std::to_string(i) +
                 " sends both branches to the same child");
      ++indegree[node.left];
      ++indegree[node.right];
    }

    // A well-formed tree reaches every node from the root exactly once:
    // the root has indegree 0 and every other node indegree 1. Indegree 0
    // elsewhere is an orphan; indegree > 1 is node sharing, which also
    // covers every cycle not involving the root (some node on the cycle is
    // entered both from the cycle and from the root's spanning path).
    if (indegree[0] > 0)
      error("tree-cycle", ctx, "root node is referenced as a child");
    for (std::size_t i = 1; i < n; ++i) {
      if (indegree[i] == 0)
        error("tree-orphan", ctx,
              "node " + std::to_string(i) + " is unreachable from the root");
      else if (indegree[i] > 1)
        error("tree-shared-node", ctx,
              "node " + std::to_string(i) +
                  " has multiple parents (shared subtree or cycle)");
    }
  }

  // ---- rule list (JRip) ----------------------------------------------

  void check_structure(const ml::RuleListIr& rules, const std::string& ctx) {
    if (rules.target_class != 0 && rules.target_class != 1)
      error("rule-target", ctx,
            "target class " + std::to_string(rules.target_class) +
                " is not a binary label");
    if (!valid_proba(rules.default_proba))
      error("rule-default", ctx,
            "default probability " + std::to_string(rules.default_proba) +
                " is invalid — the decision list no longer covers the "
                "whole input space");

    for (std::size_t r = 0; r < rules.rules.size(); ++r) {
      const ml::RuleIr& rule = rules.rules[r];
      const std::string where = "rule " + std::to_string(r);
      if (!valid_proba(rule.precision))
        error("rule-precision", ctx,
              where + " has invalid precision " +
                  std::to_string(rule.precision));

      // Per-feature interval intersection: a conjunction is satisfiable
      // iff every feature's lower bound stays below its upper bound.
      std::map<std::size_t, std::pair<double, double>> bounds;  // lo, hi
      for (const ml::RuleConditionIr& cond : rule.conditions) {
        if (!finite(cond.value)) {
          error("rule-value", ctx,
                where + " has a non-finite condition value on feature " +
                    std::to_string(cond.feature));
          continue;
        }
        auto [it, inserted] = bounds.try_emplace(
            cond.feature,
            std::pair<double, double>{-std::numeric_limits<double>::infinity(),
                                      std::numeric_limits<double>::infinity()});
        if (cond.leq)
          it->second.second = std::min(it->second.second, cond.value);
        else
          it->second.first = std::max(it->second.first, cond.value);
      }
      for (const auto& [feature, lo_hi] : bounds) {
        if (lo_hi.first > lo_hi.second)
          error("rule-contradiction", ctx,
                where + " is unsatisfiable: feature " +
                    std::to_string(feature) + " must be >= " +
                    std::to_string(lo_hi.first) + " and <= " +
                    std::to_string(lo_hi.second));
      }

      if (rule.conditions.empty() && r + 1 < rules.rules.size())
        warn("rule-shadowed", ctx,
             where + " always fires, shadowing " +
                 std::to_string(rules.rules.size() - r - 1) +
                 " later rule(s) and the default");
    }
  }

  // ---- bucket rule (OneR) --------------------------------------------

  void check_structure(const ml::BucketRuleIr& rule, const std::string& ctx) {
    if (rule.proba.size() != rule.cuts.size() + 1)
      error("bucket-shape", ctx,
            std::to_string(rule.cuts.size()) + " cuts require " +
                std::to_string(rule.cuts.size() + 1) +
                " bucket probabilities, got " +
                std::to_string(rule.proba.size()));
    for (std::size_t i = 0; i < rule.cuts.size(); ++i) {
      if (!finite(rule.cuts[i])) {
        error("bucket-cuts", ctx, "bucket boundary " + std::to_string(i) +
                                      " is not finite");
        continue;
      }
      if (i > 0 && finite(rule.cuts[i - 1]) &&
          rule.cuts[i] <= rule.cuts[i - 1])
        error("bucket-cuts", ctx,
              "bucket boundaries are not strictly ascending at index " +
                  std::to_string(i));
    }
    for (std::size_t i = 0; i < rule.proba.size(); ++i)
      if (!valid_proba(rule.proba[i]))
        error("bucket-proba", ctx,
              "bucket " + std::to_string(i) + " probability " +
                  std::to_string(rule.proba[i]) + " is invalid");
  }

  // ---- linear (SGD / SMO) --------------------------------------------

  void check_structure(const ml::LinearIr& linear, const std::string& ctx) {
    const std::size_t nf = linear.weights.size();
    if (linear.mean.size() != nf || linear.stdev.size() != nf) {
      error("linear-shape", ctx,
            "standardization vectors do not match the weight vector (" +
                std::to_string(linear.mean.size()) + " means, " +
                std::to_string(linear.stdev.size()) + " stdevs, " +
                std::to_string(nf) + " weights)");
      return;
    }
    if (!finite(linear.bias))
      error("linear-weight", ctx, "bias is not finite");
    double max_slope = 0.0;
    for (std::size_t f = 0; f < nf; ++f) {
      if (!finite(linear.weights[f]) || !finite(linear.mean[f]))
        error("linear-weight", ctx,
              "weight/mean for feature " + std::to_string(f) +
                  " is not finite");
      if (!finite(linear.stdev[f]) || linear.stdev[f] <= 0.0)
        error("linear-stdev", ctx,
              "standardization scale for feature " + std::to_string(f) +
                  " is not a positive finite number");
      else if (finite(linear.weights[f]))
        max_slope = std::max(max_slope,
                             std::abs(linear.weights[f]) / linear.stdev[f]);
    }
    // A sane trained margin moves by O(1) per standardized input step;
    // slopes this extreme indicate diverged training or unit confusion.
    if (max_slope > 1e6)
      warn("linear-margin", ctx,
           "margin slope magnitude " + std::to_string(max_slope) +
               " is implausibly large for standardized inputs");
  }

  // ---- MLP -----------------------------------------------------------

  void check_structure(const ml::MlpIr& mlp, const std::string& ctx) {
    if (mlp.w1.size() != mlp.hidden * mlp.inputs ||
        mlp.b1.size() != mlp.hidden || mlp.w2.size() != mlp.hidden ||
        mlp.mean.size() != mlp.inputs || mlp.stdev.size() != mlp.inputs) {
      error("mlp-shape", ctx,
            "layer shapes are inconsistent with " +
                std::to_string(mlp.inputs) + " inputs and " +
                std::to_string(mlp.hidden) + " hidden units");
      return;
    }
    if (mlp.hidden == 0)
      warn("mlp-empty", ctx, "network has no hidden units");
    auto all_finite = [](const std::vector<double>& v) {
      return std::all_of(v.begin(), v.end(),
                         [](double x) { return std::isfinite(x); });
    };
    if (!all_finite(mlp.w1) || !all_finite(mlp.b1) || !all_finite(mlp.w2) ||
        !finite(mlp.b2) || !all_finite(mlp.mean))
      error("mlp-weight", ctx, "network contains non-finite weights");
    for (std::size_t f = 0; f < mlp.stdev.size(); ++f)
      if (!finite(mlp.stdev[f]) || mlp.stdev[f] <= 0.0)
        error("mlp-stdev", ctx,
              "standardization scale for feature " + std::to_string(f) +
                  " is not a positive finite number");
  }

  // ---- BayesNet ------------------------------------------------------

  void check_structure(const ml::BayesNetIr& bn, const std::string& ctx) {
    const double prior_sum =
        std::exp(bn.log_prior[0]) + std::exp(bn.log_prior[1]);
    if (!finite(bn.log_prior[0]) || !finite(bn.log_prior[1]) ||
        std::abs(prior_sum - 1.0) > kDistributionTolerance)
      error("bayes-prior", ctx,
            "class priors do not form a distribution (sum = " +
                std::to_string(prior_sum) + ")");

    const std::size_t na = bn.cpts.size();
    for (std::size_t f = 0; f < na; ++f) {
      const ml::CptIr& cpt = bn.cpts[f];
      const std::string where = "attribute " + std::to_string(f);

      for (std::size_t i = 0; i < cpt.cuts.size(); ++i)
        if (!finite(cpt.cuts[i]) ||
            (i > 0 && cpt.cuts[i] <= cpt.cuts[i - 1]))
          error("bayes-cuts", ctx,
                where + " discretizer boundaries are not finite strictly "
                        "ascending");

      if (cpt.parent != ml::CptIr::kNoParent && (cpt.parent >= na ||
                                             cpt.parent == f)) {
        error("bayes-parent", ctx,
              where + " has an invalid parent index " +
                  std::to_string(cpt.parent));
        continue;
      }

      const std::size_t bins = cpt.cuts.size() + 1;
      const std::size_t pbins = cpt.parent == ml::CptIr::kNoParent
                                    ? 1
                                    : bn.cpts[cpt.parent].cuts.size() + 1;
      bool shape_ok = cpt.log_prob.size() == 2;
      for (const auto& per_class : cpt.log_prob) {
        shape_ok = shape_ok && per_class.size() == pbins;
        for (const auto& row : per_class)
          shape_ok = shape_ok && row.size() == bins;
      }
      if (!shape_ok) {
        error("bayes-cpt-shape", ctx,
              where + " CPT dimensions do not match its discretizer (" +
                  std::to_string(bins) + " bins) and parent (" +
                  std::to_string(pbins) + " parent bins)");
        continue;
      }
      for (const auto& per_class : cpt.log_prob) {
        for (const auto& row : per_class) {
          double sum = 0.0;
          bool row_finite = true;
          for (double lp : row) {
            if (!finite(lp) || lp > 1e-12) {
              row_finite = false;
              error("bayes-cpt-entry", ctx,
                    where + " CPT contains a value that is not a "
                            "log-probability");
              break;
            }
            sum += std::exp(lp);
          }
          if (row_finite &&
              std::abs(sum - 1.0) >
                  kDistributionTolerance *
                      static_cast<double>(std::max<std::size_t>(bins, 1)))
            error("bayes-cpt-sum", ctx,
                  where + " conditional distribution sums to " +
                      std::to_string(sum) + ", not 1");
        }
      }
    }

    // Parent chains must terminate (the TAN structure is a tree).
    for (std::size_t f = 0; f < na; ++f) {
      std::set<std::size_t> seen{f};
      std::size_t cur = f;
      while (cur < na && bn.cpts[cur].parent != ml::CptIr::kNoParent) {
        cur = bn.cpts[cur].parent;
        if (cur >= na) break;  // already flagged as bayes-parent
        if (!seen.insert(cur).second) {
          error("bayes-parent-cycle", ctx,
                "attribute parent chain starting at " + std::to_string(f) +
                    " forms a cycle");
          break;
        }
      }
    }
  }

  // ---- ensembles -----------------------------------------------------

  void check_structure(const ml::EnsembleIr& ens, const std::string& ctx) {
    if (ens.members.empty()) {
      error("ensemble-empty", ctx, "ensemble has no members");
      return;
    }
    if (ens.member_weights.size() != ens.members.size()) {
      error("ensemble-shape", ctx,
            std::to_string(ens.members.size()) + " members but " +
                std::to_string(ens.member_weights.size()) +
                " member weights");
    } else {
      double sum = 0.0;
      bool weights_ok = true;
      for (std::size_t m = 0; m < ens.member_weights.size(); ++m) {
        const double w = ens.member_weights[m];
        if (!finite(w) || w <= 0.0) {
          error("ensemble-weight", ctx,
                "member " + std::to_string(m) + " weight " +
                    std::to_string(w) +
                    " is not a positive finite vote share");
          weights_ok = false;
          continue;
        }
        sum += w;
      }
      if (weights_ok && std::abs(sum - 1.0) > 1e-6)
        error("ensemble-normalization", ctx,
              "member weights sum to " + std::to_string(sum) + ", not 1");
    }
    for (std::size_t m = 0; m < ens.members.size(); ++m) {
      const std::string child_ctx =
          (ctx.empty() ? std::string{} : ctx + " / ") + "member " +
          std::to_string(m) + " (" + ens.members[m].name + ")";
      verify(ens.members[m], child_ctx);
    }
  }

  VerifyReport report_;
};

}  // namespace

VerifyReport verify_ir(const ml::ModelIr& ir) {
  Verifier verifier;
  verifier.verify(ir, /*context=*/"");
  return verifier.take_report();
}

VerifyReport verify_model(const ml::Classifier& model) {
  return verify_ir(ml::extract_ir(model));
}

}  // namespace hmd::analysis
