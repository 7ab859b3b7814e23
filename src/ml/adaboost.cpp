#include "ml/adaboost.h"

#include <cmath>

#include "support/check.h"

namespace hmd::ml {

AdaBoostM1::AdaBoostM1(std::unique_ptr<Classifier> prototype,
                       std::size_t iterations, std::uint64_t seed,
                       bool resample)
    : prototype_(std::move(prototype)),
      iterations_(iterations),
      seed_(seed),
      resample_(resample) {
  HMD_REQUIRE(prototype_ != nullptr);
  HMD_REQUIRE(iterations_ >= 1);
}

void AdaBoostM1::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  members_.clear();
  alpha_.clear();

  Dataset working = data;
  working.normalize_weights();
  Rng rng(seed_ ^ 0xADAB005EULL);

  for (std::size_t round = 0; round < iterations_; ++round) {
    auto model = prototype_->clone_untrained();
    if (resample_) {
      Rng round_rng = rng.fork(round);
      model->train(working.weighted_bootstrap(round_rng));
    } else {
      model->train(working);
    }

    // Weighted training error of this member.
    double err = 0.0;
    double total = 0.0;
    std::vector<bool> correct(working.num_rows());
    for (std::size_t i = 0; i < working.num_rows(); ++i) {
      const int pred = model->predict(working.row(i));
      correct[i] = pred == working.label(i);
      if (!correct[i]) err += working.weight(i);
      total += working.weight(i);
    }
    err /= total;

    if (err >= 0.5) {
      // Worse than chance: discard and stop (keep at least one member).
      if (members_.empty()) {
        members_.push_back(std::move(model));
        alpha_.push_back(1.0);
      }
      break;
    }
    if (err <= 0.0) {
      // Perfect member dominates; WEKA stops boosting here.
      members_.push_back(std::move(model));
      alpha_.push_back(10.0);  // ln(1/beta) with beta floored
      break;
    }

    const double beta = err / (1.0 - err);
    members_.push_back(std::move(model));
    alpha_.push_back(std::log(1.0 / beta));

    // Reweight: correctly classified instances shrink by beta. The
    // renormalisation (total -> num_rows) is folded into the same pass
    // instead of a separate normalize_weights() walk; the accumulation
    // order and scale factor match the two-pass form bit for bit.
    std::vector<double> w(working.num_rows());
    double new_total = 0.0;
    for (std::size_t i = 0; i < working.num_rows(); ++i) {
      w[i] = working.weight(i) * (correct[i] ? beta : 1.0);
      new_total += w[i];
    }
    HMD_INVARIANT(new_total > 0.0);
    const double scale = static_cast<double>(working.num_rows()) / new_total;
    for (double& wi : w) wi *= scale;
    working.set_weights(std::move(w));
  }
  HMD_INVARIANT(!members_.empty());
  trained_ = true;
}

double AdaBoostM1::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "AdaBoostM1::train() must be called first");
  double vote_pos = 0.0, vote_all = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    vote_all += alpha_[i];
    if (members_[i]->predict(x) == 1) vote_pos += alpha_[i];
  }
  return vote_all > 0.0 ? vote_pos / vote_all : 0.5;
}

double AdaBoostM1::margin(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "AdaBoostM1::train() must be called first");
  double vote_pos = 0.0, vote_all = 0.0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    vote_all += alpha_[i];
    if (members_[i]->predict(x) == 1) vote_pos += alpha_[i];
  }
  if (vote_all <= 0.0) return 0.0;
  return std::abs(2.0 * vote_pos - vote_all) / vote_all;
}

std::unique_ptr<Classifier> AdaBoostM1::clone_untrained() const {
  return std::make_unique<AdaBoostM1>(prototype_->clone_untrained(),
                                      iterations_, seed_, resample_);
}

std::string AdaBoostM1::name() const {
  return "AdaBoost(" + prototype_->name() + ")";
}

std::optional<ModelStructure> AdaBoostM1::trained_structure() const {
  return ensemble_structure(EnsembleIr::Kind::kAdaBoost, members_, alpha_);
}

}  // namespace hmd::ml
