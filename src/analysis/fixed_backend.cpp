#include "analysis/fixed_backend.h"

#include <cstdint>
#include <vector>

#include "analysis/hls_checker.h"
#include "support/check.h"

namespace hmd::analysis {

FixedPointBackend::FixedPointBackend(ml::ModelIr ir, int fraction_bits)
    : ir_(std::move(ir)), bits_(fraction_bits) {
  HMD_REQUIRE(fraction_bits >= 0 && fraction_bits < 31);
}

void FixedPointBackend::predict_proba_batch(std::span<const double> x,
                                            std::size_t num_features,
                                            std::span<double> out) const {
  HMD_REQUIRE(x.size() == out.size() * num_features);
  std::vector<std::int32_t> xf(num_features);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto row = x.subspan(i * num_features, num_features);
    for (std::size_t f = 0; f < num_features; ++f)
      xf[f] = fixed_point_encode(row[f], bits_);
    out[i] = fixed_point_decide(ir_, xf, bits_) == 1 ? 1.0 : 0.0;
  }
}

}  // namespace hmd::analysis
