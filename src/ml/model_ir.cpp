#include "ml/model_ir.h"

#include "ml/classifier.h"
#include "support/check.h"

namespace hmd::ml {

std::size_t reduction_depth(std::size_t n) {
  std::size_t d = 0;
  while (n > 1) {
    n = (n + 1) / 2;
    ++d;
  }
  return d;
}

ModelIr extract_ir(const Classifier& model) {
  std::optional<ModelStructure> structure = model.trained_structure();
  HMD_REQUIRE_MSG(structure.has_value(),
                  "model has no extractable structure (untrained or "
                  "unsupported): " + model.name());
  return {model.name(), std::move(*structure), model.complexity()};
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
    ir.members.push_back({members[m]->name(), std::move(*member),
                          members[m]->complexity()});
    ir.member_weights.push_back(total > 0.0 ? raw_weights[m] / total : 0.0);
  }
  ir.member_raw_weights = std::move(raw_weights);
  return ir;
}

}  // namespace hmd::ml
