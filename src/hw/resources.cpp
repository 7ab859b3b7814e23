#include "hw/resources.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace hmd::hw {
namespace {

std::size_t ceil_log2(std::size_t n) {
  std::size_t d = 0;
  std::size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++d;
  }
  return d;
}

/// Latency of a single (non-ensemble) model per its evaluation style.
double leaf_latency(const ml::ModelComplexity& m) {
  if (m.kind == "tree") {
    // One compare + branch per level, pipelined in 3-cycle stages.
    return 3.0 * static_cast<double>(std::max<std::size_t>(m.depth, 1));
  }
  if (m.kind == "rules") {
    // All conditions in parallel, then a priority chain of depth stages.
    return static_cast<double>(std::max<std::size_t>(m.depth, 1));
  }
  if (m.kind == "bayes") {
    // Bin comparators, CPT reads, log-posterior adder tree.
    return 3.0 * static_cast<double>(std::max<std::size_t>(m.depth, 1));
  }
  if (m.kind == "linear") {
    // Sequential MAC over the inputs on one DSP lane.
    return 2.0 + 4.0 * static_cast<double>(std::max<std::size_t>(m.inputs, 1));
  }
  if (m.kind == "mlp") {
    // HLS MAC loop: every multiply scheduled sequentially.
    return 2.0 +
           6.0 * static_cast<double>(std::max<std::size_t>(m.multipliers, 1));
  }
  // Unknown leaf kind: fall back to depth-based estimate.
  return 2.0 * static_cast<double>(std::max<std::size_t>(m.depth, 1));
}

/// Storage (parameter memory) of one member model, in LUTs.
std::uint64_t member_storage_luts(const ml::ModelComplexity& m,
                                  const FabricParams& fp) {
  // Tables plus the constants feeding comparators/MACs.
  const std::uint64_t words = m.table_entries + m.comparators + m.multipliers;
  return words * fp.luts_per_table_word;
}

/// Combinational datapath of one member model (no parameter storage).
ResourceEstimate member_datapath(const ml::ModelComplexity& m,
                                 const FabricParams& fp) {
  ResourceEstimate r;
  r.luts = m.comparators * fp.luts_per_comparator_bit * fp.word_bits +
           m.adders * fp.luts_per_adder_bit * fp.word_bits +
           m.nonlinearities * fp.luts_per_sigmoid;
  r.dsps = m.multipliers;
  r.ffs = (m.depth + m.inputs) * fp.word_bits;
  r.latency_cycles = leaf_latency(m);
  return r;
}

}  // namespace

double ResourceEstimate::area_lut_equiv(const FabricParams& fabric) const {
  return static_cast<double>(luts) + static_cast<double>(ffs) +
         static_cast<double>(dsps) *
             static_cast<double>(fabric.dsp_area_lut_equiv);
}

double ResourceEstimate::area_percent(const ReferenceCore& core,
                                      const FabricParams& fabric) const {
  HMD_REQUIRE(core.area_lut_equiv > 0);
  return 100.0 * area_lut_equiv(fabric) /
         static_cast<double>(core.area_lut_equiv);
}

ResourceEstimate estimate_hardware(const ml::ModelComplexity& model,
                                   const FabricParams& fabric) {
  ResourceEstimate total;

  if (model.kind == "ensemble") {
    HMD_REQUIRE_MSG(!model.children.empty(),
                    "ensemble complexity must have members");
    // One shared engine sized for the largest member; parameters of every
    // member stored in on-chip memory; members evaluated back-to-back.
    ResourceEstimate engine;
    std::uint64_t storage = 0;
    double member_cycles = 0.0;
    std::size_t max_inputs = 0;
    for (const auto& child : model.children) {
      const ResourceEstimate dp = member_datapath(child, fabric);
      engine.luts = std::max(engine.luts, dp.luts);
      engine.ffs = std::max(engine.ffs, dp.ffs);
      engine.dsps = std::max(engine.dsps, dp.dsps);
      storage += member_storage_luts(child, fabric);
      member_cycles += dp.latency_cycles +
                       static_cast<double>(child.inputs) + 2.0;
      max_inputs = std::max(max_inputs, child.inputs);
    }
    const std::size_t members = model.children.size();
    total.luts = engine.luts + storage +
                 members * fabric.member_fsm_luts +
                 members * fabric.word_bits /* vote accumulate */ +
                 fabric.fixed_overhead_luts +
                 max_inputs * fabric.luts_per_input;
    total.ffs = engine.ffs + members * fabric.word_bits;
    total.dsps = engine.dsps + model.multipliers /* vote weights */;
    total.latency_cycles =
        member_cycles + static_cast<double>(ceil_log2(members)) + 1.0;
    return total;
  }

  const ResourceEstimate dp = member_datapath(model, fabric);
  total.luts = dp.luts + member_storage_luts(model, fabric) +
               fabric.fixed_overhead_luts +
               model.inputs * fabric.luts_per_input;
  total.ffs = dp.ffs;
  total.dsps = dp.dsps;
  total.latency_cycles = dp.latency_cycles;
  return total;
}

}  // namespace hmd::hw
