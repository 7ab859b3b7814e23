#include "ml/bagging.h"

#include <cmath>

#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace hmd::ml {

Bagging::Bagging(std::unique_ptr<Classifier> prototype, std::size_t bags,
                 std::uint64_t seed)
    : prototype_(std::move(prototype)), bags_(bags), seed_(seed) {
  HMD_REQUIRE(prototype_ != nullptr);
  HMD_REQUIRE(bags_ >= 1);
}

void Bagging::train(const Dataset& data) {
  HMD_REQUIRE(data.num_rows() > 0);
  members_.clear();
  const Rng rng(seed_);
  // Member b depends only on (seed, b), so members may train in any order
  // or at once: inside a pool they run as a nested job on it, elsewhere
  // one after another.
  auto train_member = [&](std::size_t b) {
    Rng bag_rng = rng.fork(b);
    const Dataset sample = data.bootstrap(bag_rng);
    std::unique_ptr<Classifier> model = prototype_->clone_untrained();
    model->train(sample);
    return model;
  };
  if (support::ThreadPool* pool = support::ThreadPool::current()) {
    members_ = pool->parallel_map(bags_, train_member);
  } else {
    for (std::size_t b = 0; b < bags_; ++b)
      members_.push_back(train_member(b));
  }
  trained_ = true;
}

double Bagging::predict_proba(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Bagging::train() must be called first");
  double acc = 0.0;
  for (const auto& m : members_) acc += m->predict_proba(x);
  return acc / static_cast<double>(members_.size());
}

double Bagging::margin(std::span<const double> x) const {
  HMD_REQUIRE_MSG(trained_, "Bagging::train() must be called first");
  std::size_t votes = 0;
  for (const auto& m : members_) votes += m->predict(x) == 1 ? 1u : 0u;
  const double frac =
      static_cast<double>(votes) / static_cast<double>(members_.size());
  return std::abs(2.0 * frac - 1.0);
}

std::unique_ptr<Classifier> Bagging::clone_untrained() const {
  return std::make_unique<Bagging>(prototype_->clone_untrained(), bags_,
                                   seed_);
}

std::string Bagging::name() const {
  return "Bagging(" + prototype_->name() + ")";
}

std::optional<ModelStructure> Bagging::trained_structure() const {
  return ensemble_structure(EnsembleIr::Kind::kBagging, members_,
                            std::vector<double>(members_.size(), 1.0));
}

}  // namespace hmd::ml
