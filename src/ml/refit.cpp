#include "ml/refit.h"

#include "support/check.h"

namespace hmd::ml {

std::shared_ptr<Classifier> refit_with_windows(const Dataset& base,
                                               std::span<const double> rows,
                                               std::size_t num_features,
                                               std::span<const int> labels,
                                               const RefitConfig& cfg) {
  HMD_REQUIRE(base.num_rows() > 0);
  HMD_REQUIRE(num_features == base.num_features());
  HMD_REQUIRE(rows.size() == labels.size() * num_features);

  // Copy-on-write augmentation: `augmented` shares the base storage until
  // reserve() copies it, so the caller's split survives untouched. The
  // reservation sizes the copy once instead of growing it row by row.
  Dataset augmented = base;
  augmented.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::span<const double> row = rows.subspan(i * num_features,
                                                     num_features);
    augmented.add_row(std::vector<double>(row.begin(), row.end()), labels[i]);
  }

  std::shared_ptr<Classifier> model =
      make_detector(cfg.kind, cfg.ensemble, cfg.seed);
  model->train(augmented);
  return model;
}

}  // namespace hmd::ml
