// FPGA implementation cost model — the paper's Table 3 substitute.
//
// The paper synthesises each trained detector with Vivado HLS onto a Xilinx
// Virtex-7 and reports (a) classification latency in clock cycles @10 ns and
// (b) area as utilized LUT/FF/DSP resources relative to an OpenSPARC core on
// the same fabric. Without the Xilinx toolchain we estimate both from the
// *structure of the actually-trained model*: the ml::ModelComplexity that
// ml::complexity(ir) computes from the model's IR (ml/model_ir.h):
//
//   * every threshold comparison costs a W-bit comparator, every
//     accumulation a W-bit adder, every MAC a DSP48 slice, every CPT/leaf
//     entry a word of LUTRAM, every activation a piece-wise-linear sigmoid
//     evaluator;
//   * trees evaluate one level per pipeline stage, rule lists in parallel
//     with a priority encoder, linear models as a sequential MAC schedule,
//     MLPs as a fully sequential HLS MAC loop;
//   * ensembles are synthesised as ONE shared evaluation engine that plays
//     the member models from parameter memory back-to-back (this is what
//     makes ensemble latency grow ~linearly with members while the area
//     overhead stays small — the paper's central hardware observation).
//
// Absolute numbers differ from the paper's Vivado results; the relative
// ordering (MLP >> everything; OneR/JRip/REPTree tiny; <~3% ensemble area
// overhead; boosted-MLP-2HPC smaller than general-MLP-8HPC) is reproduced.
#pragma once

#include <cstdint>
#include <string>

#include "ml/model_ir.h"

namespace hmd::hw {

/// Per-operator resource parameters (Virtex-7-class fabric, 16-bit fixed
/// point datapath).
struct FabricParams {
  std::uint32_t word_bits = 16;
  std::uint32_t luts_per_comparator_bit = 1;
  std::uint32_t luts_per_adder_bit = 1;
  std::uint32_t luts_per_table_word = 8;    ///< LUTRAM, 16-bit word
  std::uint32_t luts_per_sigmoid = 220;     ///< PWL segment evaluator
  std::uint32_t dsp_area_lut_equiv = 450;   ///< DSP48 slice area weight
  std::uint32_t fixed_overhead_luts = 600;  ///< HPC bus interface + control
  std::uint32_t luts_per_input = 40;        ///< counter capture register+mux
  std::uint32_t member_fsm_luts = 60;       ///< ensemble sequencing control
};

/// The area reference the paper normalises against.
struct ReferenceCore {
  std::string name = "OpenSPARC T1 core (Virtex-7)";
  std::uint64_t area_lut_equiv = 45000;
};

/// Synthesis result for one detector.
struct ResourceEstimate {
  std::uint64_t luts = 0;
  std::uint64_t ffs = 0;
  std::uint64_t dsps = 0;
  double latency_cycles = 0.0;  ///< cycles @10 ns to classify one vector

  /// Composite area in LUT-equivalents (LUTs + FFs + weighted DSPs).
  double area_lut_equiv(const FabricParams& fabric = {}) const;

  /// Area relative to the reference core, percent (paper Table 3 "Area %").
  double area_percent(const ReferenceCore& core = {},
                      const FabricParams& fabric = {}) const;

  /// Classification latency in nanoseconds at the 100 MHz (10 ns) clock.
  double latency_ns() const { return latency_cycles * 10.0; }
};

/// Estimate the hardware implementation of a trained model from its
/// complexity, ml::complexity(ml::extract_ir(model)).
ResourceEstimate estimate_hardware(const ml::ModelComplexity& model,
                                   const FabricParams& fabric = {});

}  // namespace hmd::hw
