// HLS C code generation for trained detectors.
//
// The paper's hardware flow is "trained WEKA model → C implementation →
// Vivado HLS → Virtex-7". This module performs the first arrow: it walks a
// trained model's IR (ml/model_ir.h — the same structural view the flat
// inference engine lowers from) and emits a self-contained,
// synthesis-friendly C function (fixed-point arithmetic, no libc calls, no
// recursion, bounded loops) that computes the same decision. Feed the
// output to any HLS tool to obtain real implementation numbers next to the
// analytic estimates of hw/resources.h.
//
// Supported structures: bucket rules (OneR), trees (J48, REPTree,
// RandomTree), rule lists (JRip), linear margins (SGD, SMO), and
// AdaBoost/Bagging/RandomForest ensembles of those. MLP and BayesNet
// structures are rejected.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "ml/model_ir.h"

namespace hmd::hw {

/// Fixed-point format used by the generated code.
struct HlsOptions {
  std::string function_name = "hmd_classify";
  int fraction_bits = 8;  ///< inputs/constants scaled by 2^fraction_bits
};

/// Emit a C function `int <name>(const int32_t x[N])` returning 1 for
/// malware, 0 for benign, implementing the model `ir` describes
/// (ml::extract_ir, which throws for untrained models). `num_inputs` must
/// match the model's training feature count.
///
/// Throws PreconditionError when hls_supported(ir) is false.
void generate_hls_c(std::ostream& os, const ml::ModelIr& ir,
                    std::size_t num_inputs, const HlsOptions& options = {});

/// Fraction bits the generator uses for the folded slopes (w_f / sd_f) of a
/// linear model. Starts at `fraction_bits` and widens while the largest
/// slope magnitude stays below 2^24 and the folded offset (encoded at
/// `fraction_bits` + the result) stays well inside int64 — standardized
/// slopes on raw HPC counts are tiny, and quantizing them at the input
/// scale underflows every coefficient to zero. Exposed so the analysis
/// subsystem's fixed-point mirror stays bit-exact with the generator.
int linear_fixed_point_bits(std::span<const double> slopes, double offset,
                            int fraction_bits);

/// True if generate_hls_c can emit `ir`: no node of it is an MLP or a
/// BayesNet, and no ensemble in it is empty.
bool hls_supported(const ml::ModelIr& ir);

}  // namespace hmd::hw
