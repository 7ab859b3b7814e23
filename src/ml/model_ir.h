// Intermediate representation of trained detector structure: the one
// structural view of a trained model.
//
// Every learner fills it from its own data through
// Classifier::trained_structure(), and every consumer reads it instead of
// the learner's internals: the flat inference engine (ml/infer.h) lowers
// from it, the HLS generator (hw/hls_codegen.h) emits from it, hardware
// costing (hw/resources.h) prices its complexity(ir), and the verifier,
// range check and fixed-point mirror (src/analysis) check and simulate it.
// Tests exercise the analyzers by constructing deliberately corrupted IR
// (NaN thresholds, orphan tree nodes, zero-weight ensemble members) that a
// correct training run could never produce.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace hmd::ml {

/// Structural complexity of a trained model, used for hardware costing;
/// complexity(const ModelIr&) computes it from the IR.
struct ModelComplexity {
  std::string kind;             ///< "tree", "rules", "linear", "mlp", ...
  std::size_t comparators = 0;  ///< threshold comparisons available in parallel
  std::size_t adders = 0;       ///< accumulation operators
  std::size_t multipliers = 0;  ///< MAC units (fixed-point multiplies)
  std::size_t table_entries = 0;///< ROM/LUT-table words (CPTs, rule actions)
  std::size_t nonlinearities = 0;///< activation evaluations (PWL sigmoid)
  std::size_t depth = 0;        ///< sequential depth in "stages"
  std::size_t inputs = 0;       ///< distinct features consumed
  std::vector<ModelComplexity> children;  ///< ensemble members
};

/// One node of a flattened decision tree; index 0 is the root.
struct TreeNodeIr {
  bool leaf = true;
  std::size_t feature = 0;
  double threshold = 0.0;
  std::size_t left = 0;   ///< child index for x[feature] <= threshold
  std::size_t right = 0;  ///< child index for x[feature] >  threshold
  double proba = 0.5;     ///< P(malware) at leaves
};

/// J48 / REPTree / RandomTree: a flat array of nodes rooted at index 0.
struct TreeIr {
  std::vector<TreeNodeIr> nodes;
};

/// The reachable part of an arena tree, breadth-first (children always
/// follow their parent), with Laplace-smoothed leaf P(malware). `Node` is
/// the learners' arena node: leaf, feature, threshold, int64 left/right,
/// and class weights w_pos/w_neg.
template <typename Node>
TreeIr tree_ir(const std::vector<Node>& arena) {
  std::vector<std::size_t> order{0};
  std::vector<std::size_t> compact(arena.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node& node = arena[order[i]];
    compact[order[i]] = i;
    if (!node.leaf) {
      order.push_back(static_cast<std::size_t>(node.left));
      order.push_back(static_cast<std::size_t>(node.right));
    }
  }
  TreeIr ir;
  ir.nodes.resize(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Node& node = arena[order[i]];
    TreeNodeIr& out = ir.nodes[i];
    out.leaf = node.leaf;
    if (node.leaf) {
      out.proba = (node.w_pos + 1.0) / (node.w_pos + node.w_neg + 2.0);
    } else {
      out.feature = node.feature;
      out.threshold = node.threshold;
      out.left = compact[static_cast<std::size_t>(node.left)];
      out.right = compact[static_cast<std::size_t>(node.right)];
    }
  }
  return ir;
}

/// One conjunct of a JRip rule antecedent.
struct RuleConditionIr {
  std::size_t feature = 0;
  bool leq = true;  ///< true: x[f] <= value, false: x[f] >= value
  double value = 0.0;
};

/// One JRip rule: conjunctive antecedent, smoothed precision when it fires.
struct RuleIr {
  std::vector<RuleConditionIr> conditions;
  double precision = 1.0;
};

/// JRip: an ordered decision list with a default.
struct RuleListIr {
  std::vector<RuleIr> rules;
  int target_class = 1;        ///< class the rules predict
  double default_proba = 0.5;  ///< P(malware) when no rule fires
};

/// OneR: a single-feature bucketed rule.
struct BucketRuleIr {
  std::size_t feature = 0;
  std::vector<double> cuts;   ///< ascending bucket boundaries
  std::vector<double> proba;  ///< P(malware) per bucket (cuts.size() + 1)
};

/// SGD / SMO: a linear margin over standardized inputs.
/// margin = sum_f weights[f] * (x[f] - mean[f]) / stdev[f] + bias.
struct LinearIr {
  std::vector<double> weights;
  double bias = 0.0;
  std::vector<double> mean;
  std::vector<double> stdev;
  bool hard_output = true;  ///< emits 0/1 posteriors (hinge-loss behaviour)
};

/// MLP: one hidden sigmoid layer over standardized inputs.
struct MlpIr {
  std::size_t inputs = 0;
  std::size_t hidden = 0;
  std::vector<double> w1;  ///< hidden × inputs, row-major
  std::vector<double> b1;  ///< hidden
  std::vector<double> w2;  ///< hidden
  double b2 = 0.0;
  std::vector<double> mean;
  std::vector<double> stdev;
};

/// One attribute's conditional probability table in a BayesNet.
struct CptIr {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::vector<double> cuts;  ///< discretizer boundaries, ascending
  std::size_t parent = kNoParent;  ///< attribute index, or kNoParent
  /// log P(bin | class, parent_bin): [class][parent_bin][bin]; the
  /// parent_bin dimension is 1 when there is no parent.
  std::vector<std::vector<std::vector<double>>> log_prob;
};

/// BayesNet: class log-priors plus one CPT per attribute.
struct BayesNetIr {
  double log_prior[2] = {0.0, 0.0};
  std::vector<CptIr> cpts;
};

struct ModelIr;

/// AdaBoost / Bagging / RandomForest: weighted members (weights normalised
/// to sum to 1; bagged members carry uniform weight).
struct EnsembleIr {
  /// kAdaBoost: alpha-weighted hard vote. kBagging: member-probability
  /// average (Bagging and RandomForest).
  enum class Kind { kAdaBoost, kBagging };

  Kind kind = Kind::kBagging;
  std::vector<double> member_weights;  ///< one per member, sums to ~1
  /// Unnormalised vote weights as the model stores them (AdaBoost alphas;
  /// 1.0 per member for Bagging) — the flat engine's vote alphas and what
  /// the HLS generator quantizes.
  std::vector<double> member_raw_weights;
  std::vector<ModelIr> members;
};

using ModelStructure = std::variant<TreeIr, RuleListIr, BucketRuleIr,
                                    LinearIr, MlpIr, BayesNetIr, EnsembleIr>;

/// A model's name and structure.
struct ModelIr {
  std::string name;
  ModelStructure structure;
};

class Classifier;

/// The IR of a trained classifier: its name() and trained_structure().
/// Throws PreconditionError when the model has no structure (untrained, or
/// a model such as PlattScaling that exposes none).
ModelIr extract_ir(const Classifier& model);

/// The hardware-costing complexity of `ir`, per family:
///   * trees — one comparator per reachable internal node, one table entry
///     per reachable leaf, depth = levels on the longest root-leaf path;
///   * rule lists — one comparator per condition, one action per rule plus
///     the default, depth = rules + 1 (priority chain);
///   * bucket rules — one comparator per cut, one entry per bucket, depth 1;
///   * linear — a MAC per input, then the sign compare;
///   * MLPs — both dense layers' MACs, a PWL sigmoid per hidden unit plus
///     the output;
///   * BayesNets — the bin comparators, both classes' CPT words, two
///     accumulations per attribute;
///   * ensembles — members as children, an adder per member (and a
///     multiplier per AdaBoost vote weight), then the compare.
/// The tree walk skips out-of-range children and visits each node once, so
/// corrupted IR cannot make it hang.
ModelComplexity complexity(const ModelIr& ir);

/// The EnsembleIr of `members` voting with `raw_weights` (one per member),
/// or nullopt when there are no members (untrained) or a member has no
/// structure. Member weights are raw_weights normalised by their
/// member-order sum.
std::optional<ModelStructure> ensemble_structure(
    EnsembleIr::Kind kind,
    const std::vector<std::unique_ptr<Classifier>>& members,
    std::vector<double> raw_weights);

}  // namespace hmd::ml
