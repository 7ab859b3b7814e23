// Unit tests for src/sim: event taxonomy, cache/TLB model, branch
// predictor, the Machine's event accounting invariants, and the workload
// catalog.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "sim/branch_predictor.h"
#include "sim/cache.h"
#include "sim/events.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "support/check.h"

namespace hmd::sim {
namespace {

// ---------------------------------------------------------------- events --

TEST(Events, ExactlyFortyFour) {
  EXPECT_EQ(kEventCount, 44u);
  EXPECT_EQ(all_events().size(), 44u);
}

TEST(Events, NamesAreUniqueAndRoundTrip) {
  std::set<std::string_view> names;
  for (Event e : all_events()) {
    const auto name = event_name(e);
    EXPECT_TRUE(names.insert(name).second) << name;
    EXPECT_EQ(event_from_name(name), e);
  }
}

TEST(Events, UnknownNameThrows) {
  EXPECT_THROW(event_from_name("not_an_event"), PreconditionError);
}

TEST(Events, SevenSoftwareEvents) {
  std::size_t software = 0;
  for (Event e : all_events())
    if (is_software_event(e)) ++software;
  EXPECT_EQ(software, 7u);
}

TEST(Events, PaperTable1EventsAllExist) {
  for (const char* name :
       {"branch_instructions", "branch_loads", "iTLB_load_misses",
        "dTLB_load_misses", "dTLB_store_misses", "L1_dcache_stores",
        "cache_misses", "node_loads", "dTLB_stores", "iTLB_loads",
        "L1_icache_load_misses", "branch_load_misses", "branch_misses",
        "LLC_store_misses", "node_stores", "L1_dcache_load_misses"}) {
    EXPECT_NO_THROW(event_from_name(name)) << name;
  }
}

// ----------------------------------------------------------------- cache --

TEST(Cache, CapacityFromGeometry) {
  Cache c({64, 8, 64});
  EXPECT_EQ(c.geometry().capacity_bytes(), 64u * 8u * 64u);
}

TEST(Cache, NonPow2SetsRejected) {
  EXPECT_THROW(Cache({3, 4, 64}), PreconditionError);
}

TEST(Cache, ColdMissThenHit) {
  Cache c({16, 2, 64});
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1001));  // same line
  EXPECT_EQ(c.accesses(), 3u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  Cache c({1, 2, 64});  // one set, two ways
  EXPECT_FALSE(c.access(0 * 64));
  EXPECT_FALSE(c.access(1 * 64));
  EXPECT_TRUE(c.access(0 * 64));   // 0 is now MRU; 1 is LRU
  EXPECT_FALSE(c.access(2 * 64));  // evicts 1
  EXPECT_TRUE(c.access(0 * 64));
  EXPECT_FALSE(c.access(1 * 64));  // 1 was evicted
}

TEST(Cache, WorkingSetLargerThanCapacityThrashes) {
  Cache c({4, 2, 64});  // 8 lines
  // 16 distinct lines round-robin: every access must miss.
  for (int round = 0; round < 3; ++round)
    for (std::uint64_t line = 0; line < 16; ++line)
      c.access(line * 64);
  EXPECT_EQ(c.misses(), c.accesses());
}

TEST(Cache, FlushKeepsStats) {
  Cache c({16, 2, 64});
  c.access(0x40);
  c.flush();
  EXPECT_EQ(c.accesses(), 1u);
  EXPECT_FALSE(c.access(0x40));  // flushed → miss again
}

TEST(Cache, ResetClearsStats) {
  Cache c({16, 2, 64});
  c.access(0x40);
  c.reset();
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, ProbeDoesNotAllocateOrCount) {
  Cache c({16, 2, 64});
  EXPECT_FALSE(c.probe(0x80));
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_FALSE(c.access(0x80));  // probe did not allocate
}

TEST(Cache, FillAllocatesWithoutCounting) {
  Cache c({16, 2, 64});
  c.fill(0xC0);
  EXPECT_EQ(c.accesses(), 0u);
  EXPECT_TRUE(c.access(0xC0));
}

TEST(Cache, PolluteInvalidatesRoughFraction) {
  Cache c({64, 8, 64});
  for (std::uint64_t line = 0; line < 512; ++line) c.access(line * 64);
  c.pollute(0.5, 0x1234);
  std::size_t survivors = 0;
  for (std::uint64_t line = 0; line < 512; ++line)
    if (c.probe(line * 64)) ++survivors;
  EXPECT_GT(survivors, 150u);
  EXPECT_LT(survivors, 360u);
}

TEST(Cache, PolluteRejectsFractionsOutsideUnitInterval) {
  Cache c({64, 8, 64});
  for (const double bad : {std::nan(""), -0.25, 1.5,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()})
    EXPECT_THROW(c.pollute(bad, 0x1234), PreconditionError) << bad;
  EXPECT_NO_THROW(c.pollute(0.0, 0x1234));
  EXPECT_NO_THROW(c.pollute(1.0, 0x1234));
}

TEST(Cache, GeometryWithoutIndexOrOffsetBitsRejected) {
  // One set of one-byte lines would leave every address bit in the tag.
  EXPECT_THROW(Cache({1, 4, 1}), PreconditionError);
  EXPECT_NO_THROW(Cache({2, 4, 1}));
  EXPECT_NO_THROW(Cache({1, 4, 2}));
}

// ------------------------------------------------------- branch predictor --

TEST(BranchPredictor, LearnsStronglyBiasedBranch) {
  BranchPredictor bp;
  for (int i = 0; i < 1000; ++i) bp.execute(0x400000, true);
  // After warm-up (one 2-bit counter per reached history pattern) the
  // always-taken branch should essentially never miss.
  EXPECT_LT(bp.direction_misses(), 20u);
}

TEST(BranchPredictor, AlternatingPatternIsLearnedByHistory) {
  BranchPredictor bp;
  for (int i = 0; i < 4000; ++i) bp.execute(0x400100, i % 2 == 0);
  // gshare keys on global history: the strict alternation becomes
  // predictable once the counter tables warm up.
  EXPECT_LT(static_cast<double>(bp.direction_misses()) /
                static_cast<double>(bp.branches()),
            0.2);
}

TEST(BranchPredictor, RandomBranchMissesNearHalf) {
  BranchPredictor bp;
  Rng rng(3);
  for (int i = 0; i < 8000; ++i) bp.execute(0x400200, rng.chance(0.5));
  const double rate = static_cast<double>(bp.direction_misses()) /
                      static_cast<double>(bp.branches());
  EXPECT_GT(rate, 0.35);
  EXPECT_LT(rate, 0.65);
}

TEST(BranchPredictor, BtbCountsLookupsAndMisses) {
  BranchPredictor bp;
  bp.execute(0x1000, true);
  EXPECT_EQ(bp.btb_lookups(), 1u);
  EXPECT_EQ(bp.btb_misses(), 1u);
  bp.execute(0x1000, true);
  EXPECT_EQ(bp.btb_lookups(), 2u);
  EXPECT_EQ(bp.btb_misses(), 1u);
  EXPECT_TRUE(bp.last_btb_hit());
}

TEST(BranchPredictor, ResetClearsEverything) {
  BranchPredictor bp;
  bp.execute(0x1000, true);
  bp.reset();
  EXPECT_EQ(bp.branches(), 0u);
  EXPECT_EQ(bp.btb_lookups(), 0u);
}

// --------------------------------------------------------------- machine --

AppProfile tiny_app(std::uint64_t seed = 5, std::uint32_t intervals = 4) {
  AppProfile app = make_benign(0, 0, seed, intervals);
  return app;
}

TEST(Machine, RequiresStartRun) {
  Machine m;
  EXPECT_THROW(m.next_interval(), PreconditionError);
}

TEST(Machine, RunsExactlyTheConfiguredIntervals) {
  Machine m;
  const auto app = tiny_app(5, 6);
  m.start_run(app, 0);
  int n = 0;
  while (m.running()) {
    m.next_interval();
    ++n;
  }
  EXPECT_EQ(n, 6);
}

TEST(Machine, DeterministicForSameRunIndex) {
  const auto app = tiny_app();
  Machine m1, m2;
  m1.start_run(app, 3);
  m2.start_run(app, 3);
  while (m1.running()) {
    const auto a = m1.next_interval();
    const auto b = m2.next_interval();
    for (Event e : all_events()) EXPECT_EQ(a[e], b[e]);
  }
}

TEST(Machine, DifferentRunIndexGivesDifferentCounts) {
  const auto app = tiny_app();
  Machine m1, m2;
  m1.start_run(app, 0);
  m2.start_run(app, 1);
  const auto a = m1.next_interval();
  const auto b = m2.next_interval();
  EXPECT_NE(a[Event::kInstructions], b[Event::kInstructions]);
}

TEST(Machine, EventAccountingInvariants) {
  Machine m;
  const auto app = make_malware(0, 0, 77, 6);
  m.start_run(app, 0);
  while (m.running()) {
    const auto c = m.next_interval();
    EXPECT_GT(c[Event::kInstructions], 0u);
    EXPECT_GT(c[Event::kCpuCycles], 0u);
    // Misses never exceed accesses, per structure.
    EXPECT_LE(c[Event::kBranchMisses], c[Event::kBranchInstructions]);
    EXPECT_LE(c[Event::kBranchLoadMisses], c[Event::kBranchLoads]);
    EXPECT_LE(c[Event::kL1DcacheLoadMisses], c[Event::kL1DcacheLoads]);
    EXPECT_LE(c[Event::kL1DcacheStoreMisses], c[Event::kL1DcacheStores]);
    EXPECT_LE(c[Event::kL1IcacheLoadMisses], c[Event::kL1IcacheLoads]);
    EXPECT_LE(c[Event::kItlbLoadMisses], c[Event::kItlbLoads]);
    EXPECT_LE(c[Event::kDtlbLoadMisses], c[Event::kDtlbLoads]);
    EXPECT_LE(c[Event::kDtlbStoreMisses], c[Event::kDtlbStores]);
    EXPECT_LE(c[Event::kLlcLoadMisses], c[Event::kLlcLoads]);
    EXPECT_LE(c[Event::kLlcStoreMisses], c[Event::kLlcStores]);
    // dTLB sees exactly the L1D traffic.
    EXPECT_EQ(c[Event::kDtlbLoads], c[Event::kL1DcacheLoads]);
    EXPECT_EQ(c[Event::kDtlbStores], c[Event::kL1DcacheStores]);
    // Demand LLC traffic comes from L1 misses.
    EXPECT_LE(c[Event::kLlcLoads], c[Event::kL1DcacheLoadMisses]);
    // BTB is looked up once per branch.
    EXPECT_EQ(c[Event::kBranchLoads], c[Event::kBranchInstructions]);
    // NUMA traffic comes from LLC demand misses.
    EXPECT_LE(c[Event::kNodeLoads], c[Event::kLlcLoadMisses]);
    EXPECT_LE(c[Event::kNodeLoadMisses], c[Event::kNodeLoads]);
    // Software composition.
    EXPECT_EQ(c[Event::kPageFaults],
              c[Event::kMinorFaults] + c[Event::kMajorFaults]);
    // Cycle accounting.
    EXPECT_GE(c[Event::kCpuCycles], c[Event::kStalledCyclesFrontend]);
    EXPECT_EQ(c[Event::kRefCycles], c[Event::kCpuCycles]);
    EXPECT_EQ(c[Event::kBusCycles], c[Event::kCpuCycles] / 4);
  }
}

TEST(Machine, ContextSwitchesIncreaseTlbMisses) {
  // Same template, one variant with a huge context-switch rate.
  AppProfile calm = tiny_app(5, 8);
  AppProfile noisy = calm;
  for (auto& ph : calm.phases) ph.context_switch_rate = 0.0;
  for (auto& ph : noisy.phases) ph.context_switch_rate = 30.0;

  auto total = [](Machine& m, const AppProfile& app, Event e) {
    m.start_run(app, 0);
    std::uint64_t acc = 0;
    while (m.running()) acc += m.next_interval()[e];
    return acc;
  };
  Machine m;
  const auto calm_misses = total(m, calm, Event::kDtlbLoadMisses);
  const auto noisy_misses = total(m, noisy, Event::kDtlbLoadMisses);
  EXPECT_GT(noisy_misses, calm_misses * 2);
}

TEST(Machine, SyscallRateDrivesKernelInstructionVolume) {
  AppProfile quiet = tiny_app(5, 4);
  AppProfile chatty = quiet;
  for (auto& ph : quiet.phases) ph.syscalls_per_kilo_instr = 0.0;
  for (auto& ph : chatty.phases) ph.syscalls_per_kilo_instr = 10.0;
  Machine m;
  m.start_run(quiet, 0);
  std::uint64_t quiet_instr = 0;
  while (m.running()) quiet_instr += m.next_interval()[Event::kInstructions];
  m.start_run(chatty, 0);
  std::uint64_t chatty_instr = 0;
  while (m.running())
    chatty_instr += m.next_interval()[Event::kInstructions];
  EXPECT_GT(chatty_instr, quiet_instr * 3 / 2);
}

TEST(Machine, MultiPhaseAppsChangeBehaviourOverTime) {
  // The ransomware template has a scan phase then an encrypt phase with
  // far more stores; the store rate must rise across the run.
  AppProfile app = make_malware(4, 0, 123, 16);
  ASSERT_GE(app.phases.size(), 2u);
  Machine m;
  m.start_run(app, 0);
  std::vector<double> store_rate;
  while (m.running()) {
    const auto c = m.next_interval();
    store_rate.push_back(static_cast<double>(c[Event::kL1DcacheStores]) /
                         static_cast<double>(c[Event::kInstructions]));
  }
  const double early = (store_rate[0] + store_rate[1] + store_rate[2]) / 3;
  const auto n = store_rate.size();
  const double late =
      (store_rate[n - 1] + store_rate[n - 2] + store_rate[n - 3]) / 3;
  EXPECT_GT(late, early * 1.5);
}

// -------------------------------------------------------------- workloads --

TEST(Workloads, CorpusSizeMatchesConfig) {
  CorpusConfig cfg;
  cfg.benign_per_template = 2;
  cfg.malware_per_template = 3;
  const auto corpus = build_corpus(cfg);
  EXPECT_EQ(corpus.size(), benign_template_count() * 2 +
                               malware_template_count() * 3);
}

TEST(Workloads, PaperScaleCorpusExceeds100Applications) {
  const auto corpus = build_corpus(CorpusConfig{});
  EXPECT_GE(corpus.size(), 100u);
}

TEST(Workloads, LabelsAndNamesAreConsistent) {
  const auto corpus = build_corpus(
      CorpusConfig{.benign_per_template = 1, .malware_per_template = 1});
  std::set<std::string> names;
  for (const auto& app : corpus) {
    EXPECT_TRUE(names.insert(app.name).second) << app.name;
    if (app.is_malware) {
      EXPECT_EQ(app.name.rfind("mal.", 0), 0u) << app.name;
    }
    EXPECT_FALSE(app.phases.empty());
  }
}

TEST(Workloads, VariantsOfSameTemplateDiffer) {
  const auto a = make_benign(0, 0, 2018, 20);
  const auto b = make_benign(0, 1, 2018, 20);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_NE(a.phases[0].instructions_mean, b.phases[0].instructions_mean);
}

TEST(Workloads, DeterministicForSameSeed) {
  const auto a = make_malware(2, 1, 99, 20);
  const auto b = make_malware(2, 1, 99, 20);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_DOUBLE_EQ(a.phases[0].frac_branch, b.phases[0].frac_branch);
}

TEST(Workloads, InstructionScaleApplies) {
  CorpusConfig small{.benign_per_template = 1, .malware_per_template = 1};
  small.instruction_scale = 0.5;
  CorpusConfig big = small;
  big.instruction_scale = 1.0;
  const auto s = build_corpus(small);
  const auto b = build_corpus(big);
  EXPECT_NEAR(b[0].phases[0].instructions_mean,
              2.0 * s[0].phases[0].instructions_mean, 1e-9);
}

TEST(Workloads, OutOfRangeTemplateThrows) {
  EXPECT_THROW(make_benign(benign_template_count(), 0, 1, 4),
               PreconditionError);
  EXPECT_THROW(make_malware(malware_template_count(), 0, 1, 4),
               PreconditionError);
}

}  // namespace
}  // namespace hmd::sim
