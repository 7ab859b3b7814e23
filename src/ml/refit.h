// Incremental model refresh: refit a detector on its original training
// split augmented with freshly harvested deployment windows.
//
// The paper trains once on a static 70/30 i.i.d. split; a deployed
// detector instead faces concept drift (novel malware families, benign
// behaviour shifts — serve/fleet.h's FleetDriftConfig). The refresh path
// deliberately does NOT train from scratch on drift data alone: the base
// split anchors everything the model already knows, and the harvested
// windows, added at unit weight like the base rows, pull the decision
// boundary toward the new regime. Augmentation is copy-on-write through
// Dataset::add_row, so the caller's base split is never mutated — the same
// idiom as the adversarial-retraining defense (attack/defense.h).
//
// Determinism: make_detector seeding plus a fixed row order make the refit
// a pure function of (base, rows, labels, cfg) — a retrain re-run after a
// crash, or on a different machine, produces a bit-identical model, which
// is what the serving layer's hot-swap determinism contract needs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "ml/classifier.h"
#include "ml/dataset.h"

namespace hmd::ml {

struct RefitConfig {
  ClassifierKind kind = ClassifierKind::kJRip;
  EnsembleKind ensemble = EnsembleKind::kBagging;
  std::uint64_t seed = 7;
};

/// Train a fresh detector on `base` plus the harvested window rows
/// (row-major, `num_features` wide, one label per row). `base` is shared,
/// never mutated. rows.size() must be labels.size() * num_features;
/// num_features must match the base split.
std::shared_ptr<Classifier> refit_with_windows(const Dataset& base,
                                               std::span<const double> rows,
                                               std::size_t num_features,
                                               std::span<const int> labels,
                                               const RefitConfig& cfg);

}  // namespace hmd::ml
