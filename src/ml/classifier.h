// The binary-classifier interface implemented by all eight general learners
// and the two ensemble meta-learners.
//
// All classifiers:
//   * train on weighted instances (required by AdaBoost's re-weighting);
//   * emit P(malware | x) from predict_proba() — learners that are
//     inherently discrete (SMO, SGD with hinge loss) return near-hard
//     probabilities, which is what makes their standalone AUC poor and is
//     faithful to the WEKA behaviour the paper measured;
//   * expose their trained structure as IR (ml/model_ir.h), the one view
//     of their internals that inference lowering, HLS generation, hardware
//     costing (paper Table 3) and the analyzers read.
#pragma once

#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/model_ir.h"

namespace hmd::ml {

/// The decision threshold on P(malware): scores at or above it classify as
/// malware. Every decision path — Classifier::predict, detector_metrics,
/// the batched inference backends, and the HLS differential oracle — reads
/// this one constant, so scalar and batched verdicts cannot drift.
inline constexpr double kDecisionThreshold = 0.5;

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fit the model to `data` (respecting instance weights).
  /// Requires data.num_rows() > 0 and both classes conventions documented
  /// per classifier (single-class data trains a constant model).
  virtual void train(const Dataset& data) = 0;

  /// P(label == 1 | x). Only valid after train(). `x` must have the same
  /// feature count as the training data.
  virtual double predict_proba(std::span<const double> x) const = 0;

  /// Hard decision at kDecisionThreshold.
  int predict(std::span<const double> x) const {
    return predict_proba(x) >= kDecisionThreshold ? 1 : 0;
  }

  /// Confidence of the decision in [0, 1]: 0 at the decision boundary, 1
  /// when the model is certain. The default is the probability margin
  /// |2·P(malware) − 1|; ensembles override it with their members'
  /// *agreement* (fraction of hard votes backing the verdict), which is
  /// the signal the perturbation-aware vote defence gates on — an evasion
  /// that drags the ensemble across the 0.5 boundary almost always leaves
  /// the members split, even when the averaged probability looks settled.
  virtual double margin(std::span<const double> x) const {
    return std::abs(2.0 * predict_proba(x) - 1.0);
  }

  /// A fresh untrained copy with identical hyper-parameters (used by the
  /// ensemble meta-learners to spawn base models).
  virtual std::unique_ptr<Classifier> clone_untrained() const = 0;

  /// Display name (WEKA spelling: "J48", "JRip", "SMO", ...).
  virtual std::string name() const = 0;

  /// The trained model's structure as IR; nullopt while untrained and for
  /// models that expose none (the default). extract_ir() wraps it.
  virtual std::optional<ModelStructure> trained_structure() const {
    return std::nullopt;
  }
};

/// The eight general ML classifiers studied by the paper.
enum class ClassifierKind {
  kBayesNet,
  kJ48,
  kJRip,
  kMlp,
  kOneR,
  kRepTree,
  kSgd,
  kSmo,
};

inline constexpr std::size_t kClassifierKindCount = 8;

/// The learner families compared across the whole evaluation.
enum class EnsembleKind {
  kGeneral,   ///< the base classifier alone
  kAdaBoost,  ///< AdaBoost.M1 over the base classifier
  kBagging,   ///< bootstrap aggregation over the base classifier
};

inline constexpr std::size_t kEnsembleKindCount = 3;

std::string_view classifier_kind_name(ClassifierKind kind);
std::string_view ensemble_kind_name(EnsembleKind kind);

std::span<const ClassifierKind> all_classifier_kinds();
std::span<const EnsembleKind> all_ensemble_kinds();

/// Factory for a general classifier with paper/WEKA-default hyper-parameters.
/// `seed` feeds any internal randomness (MLP init, fold shuffles).
std::unique_ptr<Classifier> make_classifier(ClassifierKind kind,
                                            std::uint64_t seed = 7);

/// Factory for a full detector: base classifier wrapped per `ensemble`.
std::unique_ptr<Classifier> make_detector(ClassifierKind kind,
                                          EnsembleKind ensemble,
                                          std::uint64_t seed = 7);

}  // namespace hmd::ml
