// The "fixed" inference backend: a software bit-simulation of the HLS
// Q-format decision function behind the ml::InferenceBackend interface.
//
// Unlike the scalar/flat backends, this one is intentionally NOT
// bit-identical to Classifier::predict_proba — it replays the quantized
// int32/int64 arithmetic the generated C would execute (same llround
// encoding, same comparison directions, same vote arithmetic as
// fixed_point_decide), so its outputs are the hard fixed-point decisions
// mapped to probabilities 0.0 / 1.0. That makes it the fast software
// oracle for the HLS differential lint: differential_check batches this
// backend against the flat backend instead of walking both models row by
// pointer-chasing row.
//
// It lives in src/analysis (not src/ml) because it replays the hls_checker
// arithmetic over an ml::ModelIr — the dependency points analysis -> ml,
// never the reverse.
#pragma once

#include <string_view>

#include "ml/infer.h"
#include "ml/model_ir.h"

namespace hmd::analysis {

class FixedPointBackend final : public ml::InferenceBackend {
 public:
  /// Simulates `ir` at `fraction_bits` (the HlsOptions Q format). Throws
  /// PreconditionError for structures the HLS generator cannot emit (MLP,
  /// BayesNet) — at predict time, matching fixed_point_decide.
  FixedPointBackend(ml::ModelIr ir, int fraction_bits);

  std::string_view name() const override { return "fixed"; }

  /// out[i] is the Q-format hard decision for row i: 1.0 (malware) or
  /// 0.0 (benign). Inputs are doubles; each value is fixed-point encoded
  /// exactly as the generated C harness encodes its int32 inputs.
  void predict_proba_batch(std::span<const double> x,
                           std::size_t num_features,
                           std::span<double> out) const override;
  using ml::InferenceBackend::predict_proba_batch;  // Dataset overloads

 private:
  ml::ModelIr ir_;
  int bits_;
};

}  // namespace hmd::analysis
