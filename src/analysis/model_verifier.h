// Static integrity verification of trained detector models.
//
// The experiment pipeline (core/experiment.h) and the hardware flow
// (hw/resources.h, hw/hls_codegen.h) both consume trained models without
// questioning them: a NaN threshold, an orphan tree node, or a zero-weight
// ensemble member silently corrupts Table 2 metrics or Table 3 area numbers
// instead of failing loudly. verify_model() walks the extracted model IR
// and reports every structural defect it can prove statically:
//
//   * trees — every node reachable from the root exactly once (no orphans,
//     no sharing, no cycles), child indices in range, finite thresholds,
//     leaf probabilities forming a valid class distribution;
//   * rule lists — finite condition values, per-rule satisfiability (no
//     contradictory bounds on one feature), total coverage via an in-range
//     default, no rules shadowed by an earlier always-true rule;
//   * bucket rules — strictly ascending finite cuts, one probability per
//     bucket, probabilities in [0, 1];
//   * linear models — finite weights/bias, positive finite standardization
//     scales, consistent dimensions;
//   * MLPs — consistent layer shapes, finite weights and biases;
//   * BayesNets — valid parent graph (in-range, no self-loops, acyclic),
//     CPT dimensions matching the discretizers, log-probabilities finite
//     and <= 0, every conditional distribution summing to 1;
//   * ensembles — non-empty membership, finite positive member weights
//     normalised to sum to 1, members verified recursively.
//
// Hardware costing reads ml::complexity(ir) of the same IR, so there is no
// second complexity figure to cross-check.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ml/classifier.h"
#include "ml/model_ir.h"

namespace hmd::analysis {

enum class Severity {
  kWarning,  ///< suspicious but not provably wrong
  kError,    ///< the model is structurally invalid
};

/// One defect found by an analyzer.
struct Finding {
  Severity severity = Severity::kError;
  std::string code;     ///< stable machine-readable id, e.g. "tree-orphan"
  std::string message;  ///< human-readable description with context
};

/// Outcome of one verification run.
struct VerifyReport {
  std::vector<Finding> findings;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  /// True when no error-severity findings were recorded.
  bool ok() const { return error_count() == 0; }
  /// All findings, one per line ("ERROR[code] message").
  std::string to_string() const;
};

/// Verify hand-built or extracted IR.
VerifyReport verify_ir(const ml::ModelIr& ir);

/// Convenience: ml::extract_ir() + verify_ir() for a trained classifier.
/// Throws PreconditionError for models without structure (untrained).
VerifyReport verify_model(const ml::Classifier& model);

}  // namespace hmd::analysis
