#include "ml/model_ir.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ml/classifier.h"
#include "support/check.h"

namespace hmd::ml {

namespace {

/// Depth, in stages, of a balanced binary reduction (adder tree) over `n`
/// operands; 0 for n <= 1.
std::size_t reduction_depth(std::size_t n) {
  std::size_t d = 0;
  while (n > 1) {
    n = (n + 1) / 2;
    ++d;
  }
  return d;
}

struct ComplexityOf {
  ModelComplexity operator()(const TreeIr& tree) const {
    ModelComplexity mc;
    mc.kind = "tree";
    if (tree.nodes.empty()) return mc;
    std::set<std::size_t> features;
    // Guarded walk from the root: out-of-range children are skipped and a
    // visited set keeps corrupted (cyclic) IR from hanging the walk.
    std::vector<bool> visited(tree.nodes.size(), false);
    std::vector<std::pair<std::size_t, std::size_t>> stack{{0, 1}};
    std::size_t internal = 0, leaves = 0, depth = 0;
    while (!stack.empty()) {
      const auto [idx, level] = stack.back();
      stack.pop_back();
      if (idx >= tree.nodes.size() || visited[idx]) continue;
      visited[idx] = true;
      depth = std::max(depth, level);
      const TreeNodeIr& node = tree.nodes[idx];
      if (node.leaf) {
        ++leaves;
        continue;
      }
      ++internal;
      features.insert(node.feature);
      stack.emplace_back(node.left, level + 1);
      stack.emplace_back(node.right, level + 1);
    }
    mc.comparators = internal;
    mc.table_entries = leaves;
    mc.depth = depth;
    mc.inputs = features.size();
    return mc;
  }

  ModelComplexity operator()(const RuleListIr& rules) const {
    ModelComplexity mc;
    mc.kind = "rules";
    std::set<std::size_t> features;
    for (const RuleIr& rule : rules.rules) {
      mc.comparators += rule.conditions.size();
      for (const RuleConditionIr& c : rule.conditions)
        features.insert(c.feature);
    }
    mc.table_entries = rules.rules.size() + 1;
    mc.depth = 1 + rules.rules.size();
    mc.inputs = features.size();
    return mc;
  }

  ModelComplexity operator()(const BucketRuleIr& rule) const {
    ModelComplexity mc;
    mc.kind = "rules";
    mc.comparators = rule.cuts.size();
    mc.table_entries = rule.proba.size();
    mc.depth = 1;
    mc.inputs = 1;
    return mc;
  }

  ModelComplexity operator()(const LinearIr& linear) const {
    ModelComplexity mc;
    mc.kind = "linear";
    const std::size_t nf = linear.weights.size();
    mc.multipliers = nf;
    mc.adders = nf;
    mc.comparators = 1;
    mc.depth = reduction_depth(nf) + 2;
    mc.inputs = nf;
    return mc;
  }

  ModelComplexity operator()(const MlpIr& mlp) const {
    ModelComplexity mc;
    mc.kind = "mlp";
    mc.multipliers = mlp.hidden * mlp.inputs + mlp.hidden;
    mc.adders = mlp.hidden * mlp.inputs + mlp.hidden + mlp.hidden + 1;
    mc.nonlinearities = mlp.hidden + 1;
    mc.depth =
        reduction_depth(mlp.inputs) + reduction_depth(mlp.hidden) + 4;
    mc.inputs = mlp.inputs;
    return mc;
  }

  ModelComplexity operator()(const BayesNetIr& bn) const {
    ModelComplexity mc;
    mc.kind = "bayes";
    mc.inputs = bn.cpts.size();
    for (const CptIr& cpt : bn.cpts) {
      mc.comparators += cpt.cuts.size();
      const std::size_t pbins = cpt.parent == CptIr::kNoParent ||
                                        cpt.parent >= bn.cpts.size()
                                    ? 1
                                    : bn.cpts[cpt.parent].cuts.size() + 1;
      mc.table_entries += 2 * pbins * (cpt.cuts.size() + 1);
      mc.adders += 2;
    }
    mc.depth = reduction_depth(bn.cpts.size()) + 2;
    return mc;
  }

  ModelComplexity operator()(const EnsembleIr& ens) const {
    ModelComplexity mc;
    mc.kind = "ensemble";
    const std::size_t n = ens.members.size();
    if (ens.kind == EnsembleIr::Kind::kAdaBoost) mc.multipliers = n;
    mc.adders = n;
    mc.comparators = 1;
    std::size_t max_child_depth = 0;
    for (const ModelIr& member : ens.members) {
      mc.children.push_back(complexity(member));
      mc.inputs = std::max(mc.inputs, mc.children.back().inputs);
      max_child_depth = std::max(max_child_depth, mc.children.back().depth);
    }
    mc.depth = max_child_depth + reduction_depth(n) + 1;
    return mc;
  }
};

}  // namespace

ModelComplexity complexity(const ModelIr& ir) {
  return std::visit(ComplexityOf{}, ir.structure);
}

ModelIr extract_ir(const Classifier& model) {
  std::optional<ModelStructure> structure = model.trained_structure();
  HMD_REQUIRE_MSG(structure.has_value(),
                  "model has no extractable structure (untrained or "
                  "unsupported): " + model.name());
  return {model.name(), std::move(*structure)};
}

std::optional<ModelStructure> ensemble_structure(
    EnsembleIr::Kind kind,
    const std::vector<std::unique_ptr<Classifier>>& members,
    std::vector<double> raw_weights) {
  HMD_REQUIRE(raw_weights.size() == members.size());
  if (members.empty()) return std::nullopt;
  EnsembleIr ir;
  ir.kind = kind;
  double total = 0.0;
  for (const double w : raw_weights) total += w;
  for (std::size_t m = 0; m < members.size(); ++m) {
    std::optional<ModelStructure> member = members[m]->trained_structure();
    if (!member) return std::nullopt;
    ir.members.push_back({members[m]->name(), std::move(*member)});
    ir.member_weights.push_back(total > 0.0 ? raw_weights[m] / total : 0.0);
  }
  ir.member_raw_weights = std::move(raw_weights);
  return ir;
}

}  // namespace hmd::ml
