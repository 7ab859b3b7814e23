// Golden capture hashes: pins simulator output bit for bit.
//
// Each case captures all 44 events of a small corpus (six apps, benign and
// malware) and folds every row value into one FNV-1a hash. Any change to a
// count — from the caches, TLBs, BTB, predictors, protocols or fault
// layer — shows up here. A deliberate model change must re-record the
// hashes (the failure message prints the new value) and say so.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "hpc/capture.h"
#include "hpc/faults.h"
#include "sim/workloads.h"

namespace hmd {
namespace {

std::vector<sim::AppProfile> golden_corpus(std::uint32_t intervals) {
  sim::CorpusConfig cfg;
  cfg.benign_per_template = 1;
  cfg.malware_per_template = 1;
  cfg.intervals_per_app = intervals;
  const auto all = sim::build_corpus(cfg);
  // Three benign templates, then three malware families, spread across
  // the catalogue.
  const std::size_t nb = sim::benign_template_count();
  std::vector<sim::AppProfile> apps;
  for (const std::size_t i : {std::size_t{0}, std::size_t{7}, nb - 1,
                              nb, nb + 5, all.size() - 1})
    apps.push_back(all[i]);
  return apps;
}

std::uint64_t fnv1a(const hpc::Capture& cap) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : cap.rows) {
    for (const double v : row) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 64; b += 8) {
        h ^= (bits >> b) & 0xFF;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// Multi-run captures need few intervals per app. The single-run protocols
// get more: multiplexing emits a row only once the PMU rotation has
// visited every batch.
constexpr std::uint32_t kMultiRunIntervals = 5;
constexpr std::uint32_t kSingleRunIntervals = 24;

struct GoldenCase {
  std::string name;
  hpc::CaptureConfig cfg;
  std::uint64_t hash;
  std::uint32_t intervals = kMultiRunIntervals;
};

hpc::CaptureConfig base_config() {
  hpc::CaptureConfig cfg;
  cfg.threads = 1;
  return cfg;
}

// Replacement policy on every cache level, as bench/ablation_microarch sets it.
hpc::CaptureConfig with_policy(sim::ReplacementPolicy policy) {
  auto cfg = base_config();
  cfg.machine.l1i.policy = policy;
  cfg.machine.l1d.policy = policy;
  cfg.machine.llc.policy = policy;
  return cfg;
}

hpc::CaptureConfig with_predictor(sim::BranchPredictorKind kind) {
  auto cfg = base_config();
  cfg.machine.branch.kind = kind;
  return cfg;
}

hpc::CaptureConfig with_protocol(hpc::CaptureProtocol protocol) {
  auto cfg = base_config();
  cfg.protocol = protocol;
  return cfg;
}

hpc::CaptureConfig with_light_faults() {
  auto cfg = base_config();
  cfg.faults = hpc::fault_profile(hpc::FaultProfile::kLight, 11);
  return cfg;
}

std::vector<GoldenCase> golden_cases() {
  using sim::BranchPredictorKind;
  using sim::ReplacementPolicy;
  return {
      {"default", base_config(), 0x0f3d12642e2ec4c7ULL},
      {"lru", with_policy(ReplacementPolicy::kLru), 0x0f3d12642e2ec4c7ULL},
      {"fifo", with_policy(ReplacementPolicy::kFifo), 0x00e38a09a6d36be4ULL},
      {"random", with_policy(ReplacementPolicy::kRandom),
       0x71f73e2cd8433624ULL},
      {"tree_plru", with_policy(ReplacementPolicy::kTreePlru),
       0x091dcf3a12604502ULL},
      {"gshare", with_predictor(BranchPredictorKind::kGshare),
       0x0f3d12642e2ec4c7ULL},
      {"bimodal", with_predictor(BranchPredictorKind::kBimodal),
       0x853da28cd55546a2ULL},
      {"local_history", with_predictor(BranchPredictorKind::kLocalHistory),
       0x76f92da2bac1212aULL},
      {"tournament", with_predictor(BranchPredictorKind::kTournament),
       0x5284a26b6da3e027ULL},
      {"multiplex", with_protocol(hpc::CaptureProtocol::kMultiplex),
       0x0489b773ccfba19aULL, kSingleRunIntervals},
      {"oracle", with_protocol(hpc::CaptureProtocol::kOracle),
       0x05024851bfb2865eULL, kSingleRunIntervals},
      {"light_faults", with_light_faults(), 0x80c696990fd39cadULL},
  };
}

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

class GoldenCapture : public testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCapture, RowHashMatchesRecordedValue) {
  const GoldenCase& gc = GetParam();
  const auto cap = hpc::capture_all_events(golden_corpus(gc.intervals), gc.cfg);
  ASSERT_EQ(cap.num_features(), sim::kEventCount);
  ASSERT_FALSE(cap.rows.empty());
  EXPECT_EQ(fnv1a(cap), gc.hash)
      << gc.name << ": 0x" << std::hex << fnv1a(cap) << "ULL";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenCapture, testing::ValuesIn(golden_cases()),
    [](const testing::TestParamInfo<GoldenCase>& tpi) {
      return tpi.param.name;
    });

TEST(GoldenCaptureSetup, LightFaultsIntervene) {
  // The fault case only pins the fault layer if faults actually fire.
  const auto cap = hpc::capture_all_events(golden_corpus(kMultiRunIntervals),
                                           with_light_faults());
  EXPECT_GT(cap.report.total_retries() + cap.report.total_imputed_cells(), 0u);
}

}  // namespace
}  // namespace hmd
