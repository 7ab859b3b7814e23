// Shared helpers for the test suite: synthetic dataset builders with known
// structure, so classifier tests assert against ground truth instead of
// golden numbers.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "support/rng.h"

namespace hmd::testutil {

/// Two Gaussian blobs, linearly separable with margin ~ (4 - 2*spread).
/// Class 0 centred at -2, class 1 at +2 along every informative axis;
/// `noise_features` additional N(0,1) columns carry no signal.
inline ml::Dataset gaussian_blobs(std::size_t n_per_class,
                                  std::size_t informative,
                                  std::size_t noise_features, double spread,
                                  std::uint64_t seed) {
  std::vector<std::string> names;
  for (std::size_t f = 0; f < informative + noise_features; ++f)
    names.push_back("f" + std::to_string(f));
  ml::Dataset data(std::move(names));
  Rng rng(seed);
  for (int cls = 0; cls <= 1; ++cls) {
    const double centre = cls == 0 ? -2.0 : 2.0;
    for (std::size_t i = 0; i < n_per_class; ++i) {
      std::vector<double> row;
      for (std::size_t f = 0; f < informative; ++f)
        row.push_back(rng.gaussian(centre, spread));
      for (std::size_t f = 0; f < noise_features; ++f)
        row.push_back(rng.gaussian(0.0, 1.0));
      data.add_row(std::move(row), cls, 1.0, /*group=*/cls * 1000 + i / 8);
    }
  }
  return data;
}

/// XOR checkerboard in the first two features: not linearly separable,
/// needs at least a depth-2 tree (or an ensemble of stumps).
inline ml::Dataset xor_data(std::size_t n_per_quadrant, double spread,
                            std::uint64_t seed) {
  ml::Dataset data(std::vector<std::string>{"x", "y"});
  Rng rng(seed);
  for (int qx = 0; qx <= 1; ++qx) {
    for (int qy = 0; qy <= 1; ++qy) {
      const int label = qx ^ qy;
      for (std::size_t i = 0; i < n_per_quadrant; ++i) {
        data.add_row({rng.gaussian(qx ? 2.0 : -2.0, spread),
                      rng.gaussian(qy ? 2.0 : -2.0, spread)},
                     label, 1.0, /*group=*/(qx * 2 + qy) * 100 + i / 8);
      }
    }
  }
  return data;
}

/// FNV-1a 64 over the bits of `values`, in order: the golden-value hash.
inline std::uint64_t fnv1a_bits(std::span<const double> values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 64; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// True when a system C compiler (`cc`) runs; tests that compile
/// generated C skip without one.
inline bool have_cc() {
  return std::system("cc --version > /dev/null 2>&1") == 0;
}

/// Fraction of rows of `data` classified correctly by `clf`.
template <typename Classifier>
double train_accuracy(const Classifier& clf, const ml::Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    if (clf.predict(data.row(i)) == data.label(i)) ++correct;
  return static_cast<double>(correct) /
         static_cast<double>(data.num_rows());
}

}  // namespace hmd::testutil
