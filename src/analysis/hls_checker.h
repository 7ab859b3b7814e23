// Static checking of the HLS C emitted by hw/hls_codegen.
//
// The generator documents a synthesis contract — self-contained C99, no
// libc calls, no recursion, bounded loops only, int32 fixed-point
// arithmetic — but nothing enforced it: a generator regression that emitted
// a `while`, called into libm, or produced a threshold constant that
// silently truncates in an int32 array would only be discovered inside a
// (slow, external) HLS tool run. This module closes that gap three ways:
//
//   * lint_hls_code() — a textual lint of the emitted C against the
//     contract: balanced delimiters, only the <stdint.h> include, every
//     call resolving to a previously defined local helper (which rules out
//     libc calls, forward references, and recursion in one check), loops
//     restricted to the generator's counted `for` shape, and comparison
//     constants representable in int32;
//   * check_fixed_point_range() — a structural walk of the model IR
//     verifying every constant the generator will quantize (tree
//     thresholds, rule bounds, bucket cuts, folded linear slopes/offsets,
//     vote weights) stays representable in int32 at the configured
//     fraction_bits before any code is emitted;
//   * differential_check() — a fixed-point mirror of the generated
//     function's arithmetic, evaluated against predict_proba() thresholding
//     over a probe dataset, bounding the decision divergence introduced by
//     quantization (and catching any semantic drift between the generator
//     and the model outright).
#pragma once

#include <cstddef>
#include <string>

#include "analysis/model_verifier.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/model_ir.h"

namespace hmd::analysis {

struct HlsLintOptions {
  /// Fixed-point fraction bits the code was generated with (HlsOptions).
  int fraction_bits = 8;
};

/// Lint generated HLS C source against the synthesis contract.
/// Works on any string; feed it the output of hw::generate_hls_c.
VerifyReport lint_hls_code(const std::string& c_source,
                           const HlsLintOptions& options = {});

/// Verify every model constant the HLS generator quantizes fits int32 at
/// `fraction_bits`. MLP/BayesNet structures yield no findings (the
/// generator rejects them before emitting anything).
VerifyReport check_fixed_point_range(const ml::ModelIr& ir,
                                     int fraction_bits = 8);

struct DifferentialOptions {
  int fraction_bits = 8;
  /// Accepted fraction of probe rows whose fixed-point decision differs
  /// from predict_proba() thresholding (quantization near split
  /// boundaries makes a small rate unavoidable).
  double max_mismatch_rate = 0.02;
};

struct DifferentialResult {
  std::size_t probes = 0;
  std::size_t mismatches = 0;
  bool ok = false;

  double mismatch_rate() const {
    return probes == 0 ? 0.0
                       : static_cast<double>(mismatches) /
                             static_cast<double>(probes);
  }
};

/// Encode one feature value exactly as the differential harness feeds the
/// generated C function: Q(fraction_bits) via llround, saturated to int32.
std::int32_t fixed_point_encode(double v, int fraction_bits);

/// Decide `x` (already fixed-point encoded at `fraction_bits`) exactly as
/// the generated C function would — same rounding, same comparison
/// directions, same vote arithmetic. Returns 1 for malware, 0 for benign.
/// Throws PreconditionError for structures the generator cannot emit
/// (MLP, BayesNet).
int fixed_point_decide(const ml::ModelIr& ir, std::span<const std::int32_t> x,
                       int fraction_bits);

/// Compare the fixed-point mirror of `ir` (ml::extract_ir(model)) against
/// the live model over the rows of `probes`. Throws PreconditionError when
/// `ir` is not HLS-supported or `probes` is empty.
DifferentialResult differential_check(const ml::Classifier& model,
                                      const ml::ModelIr& ir,
                                      const ml::Dataset& probes,
                                      const DifferentialOptions& options = {});

}  // namespace hmd::analysis
