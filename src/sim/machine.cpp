#include "sim/machine.h"

#include <algorithm>
#include <cmath>

#include "support/check.h"

namespace hmd::sim {
namespace {

constexpr std::uint64_t kPageBytes = 4096;
constexpr std::uint64_t kUserCodeBase = 0x0000'4000'0000ULL;
constexpr std::uint64_t kUserDataBase = 0x0000'7f00'0000ULL;
constexpr std::uint64_t kKernelCodeBase = 0xffff'8000'0000ULL;
constexpr std::uint64_t kKernelDataBase = 0xffff'c000'0000ULL;

// Kernel bursts behave like a fixed small kernel working set.
constexpr std::uint32_t kKernelCodePages = 20;
constexpr std::uint32_t kKernelBlocksPerPage = 12;
constexpr std::uint32_t kKernelDataPages = 48;

}  // namespace

Machine::Machine(MachineConfig cfg)
    : cfg_(cfg),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      llc_(cfg.llc),
      dtlb_(cfg.dtlb),
      itlb_(cfg.itlb),
      bp_(cfg.branch) {}

void Machine::start_run(const AppProfile& app, std::uint32_t run_index) {
  HMD_REQUIRE_MSG(!app.phases.empty(), "application must have >= 1 phase");
  HMD_REQUIRE(app.intervals >= 1);
  reset();
  app_ = &app;
  run_index_ = run_index;
  interval_ = 0;
  total_intervals_ = app.intervals;
  // Per-run randomness: the paper re-executes the app for every 4-event
  // batch, so batch-to-batch counts differ by natural run noise.
  std::uint64_t s = app.seed;
  layout_seed_ = splitmix64(s) ^ mix64(0x1007ULL + run_index);
  rng_.reseed(mix64(app.seed * 0x9E37ULL + run_index));
  user_pc_ = {};
  kernel_pc_ = {};
  seq_ptr_ = 0;
}

void Machine::reset() {
  l1i_.reset();
  l1d_.reset();
  llc_.reset();
  dtlb_.reset();
  itlb_.reset();
  bp_.reset();
  app_ = nullptr;
  interval_ = 0;
  total_intervals_ = 0;
  fetch_slot_ = 0;
  need_fetch_ = true;
  extra_frontend_ = extra_backend_ = 0.0;
}

const PhaseSpec& Machine::phase_for_interval(std::uint32_t interval) const {
  // Phases partition the run proportionally to their weights, in order —
  // e.g. an app that unpacks, then scans, then exfiltrates.
  double total = 0.0;
  for (const auto& ph : app_->phases) total += std::max(ph.weight, 1e-9);
  const double pos =
      (static_cast<double>(interval) + 0.5) /
      static_cast<double>(total_intervals_) * total;
  double acc = 0.0;
  for (const auto& ph : app_->phases) {
    acc += std::max(ph.weight, 1e-9);
    if (pos <= acc) return ph;
  }
  return app_->phases.back();
}

std::uint64_t Machine::code_address(bool kernel, const CodePoint& at,
                                    std::uint32_t instr_slot) const {
  const std::uint64_t base = kernel ? kKernelCodeBase : kUserCodeBase;
  // Scatter pages across the address space per run (ASLR-like) so that the
  // cache-set mapping differs between runs/applications.
  const std::uint64_t page_id =
      kernel ? at.page
             : (mix64(layout_seed_ ^ (0xC0DEULL + at.page)) & 0x3FF);
  const std::uint64_t block_bytes = 64;  // one basic block ~ one line
  return base + page_id * kPageBytes + at.block * block_bytes +
         (instr_slot % 16) * 4;
}

std::uint64_t Machine::data_address(bool kernel, const PhaseSpec& ph,
                                    bool is_store, Rng& rng) {
  if (kernel) {
    const std::uint64_t page = rng.below(kKernelDataPages);
    return kKernelDataBase + page * kPageBytes + (rng.below(64) * 64);
  }
  const std::uint32_t pages = std::max<std::uint32_t>(ph.data_pages, 1);
  const auto hot_pages = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(ph.hot_fraction * pages)));

  const bool scatter_store = is_store && rng.chance(ph.store_scatter);
  std::uint64_t page;
  if (!scatter_store && rng.chance(ph.hot_access_prob)) {
    if (rng.chance(ph.sequential_prob)) {
      // Streaming pointer walks the hot region with the phase stride.
      const std::uint64_t hot_bytes =
          static_cast<std::uint64_t>(hot_pages) * kPageBytes;
      seq_ptr_ = (seq_ptr_ + std::max<std::uint32_t>(ph.stride_bytes, 1)) %
                 hot_bytes;
      page = seq_ptr_ / kPageBytes;
      const std::uint64_t page_id = mix64(layout_seed_ ^ (0xDA7AULL + page));
      return kUserDataBase + (page_id & 0xFFF) * kPageBytes +
             (seq_ptr_ % kPageBytes);
    }
    page = rng.below(hot_pages);
  } else {
    page = hot_pages + rng.below(std::max<std::uint32_t>(pages - hot_pages, 1));
  }
  const std::uint64_t page_id = mix64(layout_seed_ ^ (0xDA7AULL + page));
  return kUserDataBase + (page_id & 0xFFF) * kPageBytes + rng.below(64) * 64;
}

void Machine::memory_access(std::uint64_t addr, bool is_store, bool sequential,
                            const PhaseSpec& ph, Rng& rng, EventCounts& out) {
  // dTLB.
  const bool dtlb_hit = dtlb_.access(addr & ~(kPageBytes - 1));
  if (is_store) {
    ++out[Event::kDtlbStores];
    if (!dtlb_hit) ++out[Event::kDtlbStoreMisses];
  } else {
    ++out[Event::kDtlbLoads];
    if (!dtlb_hit) ++out[Event::kDtlbLoadMisses];
  }
  if (!dtlb_hit) extra_backend_ += cfg_.tlb_miss_penalty;

  // L1D.
  const bool l1_hit = l1d_.access(addr);
  if (is_store) {
    ++out[Event::kL1DcacheStores];
    if (!l1_hit) ++out[Event::kL1DcacheStoreMisses];
  } else {
    ++out[Event::kL1DcacheLoads];
    if (!l1_hit) ++out[Event::kL1DcacheLoadMisses];
  }
  if (l1_hit) return;
  extra_backend_ += cfg_.l1d_miss_penalty;

  // LLC.
  const bool llc_hit = llc_.access(addr);
  ++out[Event::kCacheReferences];
  if (is_store) {
    ++out[Event::kLlcStores];
    if (!llc_hit) ++out[Event::kLlcStoreMisses];
  } else {
    ++out[Event::kLlcLoads];
    if (!llc_hit) ++out[Event::kLlcLoadMisses];
  }

  if (!llc_hit) {
    ++out[Event::kCacheMisses];
    extra_backend_ += cfg_.llc_miss_penalty;
    // Memory reaches a NUMA node; remote with the phase's probability.
    const bool remote = rng.chance(ph.numa_remote_frac);
    if (is_store) {
      ++out[Event::kNodeStores];
      if (remote) ++out[Event::kNodeStoreMisses];
    } else {
      ++out[Event::kNodeLoads];
      if (remote) ++out[Event::kNodeLoadMisses];
    }
    if (remote) extra_backend_ += cfg_.remote_node_penalty;
  }

  // Next-line prefetch on a sequential L1D miss.
  if (sequential) {
    const std::uint64_t next = addr + l1d_.geometry().line_bytes;
    ++out[Event::kL1DcachePrefetches];
    l1d_.fill(next);
    ++out[Event::kLlcPrefetches];
    if (!llc_.probe(next)) {
      ++out[Event::kLlcPrefetchMisses];
      ++out[Event::kNodePrefetches];
      if (rng.chance(ph.numa_remote_frac)) ++out[Event::kNodePrefetchMisses];
      llc_.fill(next);
    }
  }
}

void Machine::execute_instruction(const PhaseSpec& ph, bool kernel, Rng& rng,
                                  EventCounts& out) {
  ++out[Event::kInstructions];
  CodePoint& pc = kernel ? kernel_pc_ : user_pc_;
  const std::uint32_t pages = kernel ? kKernelCodePages
                                     : std::max<std::uint32_t>(ph.code_pages, 1);
  const std::uint32_t blocks =
      kernel ? kKernelBlocksPerPage
             : std::max<std::uint32_t>(ph.blocks_per_page, 1);

  // Instruction fetch: iTLB + L1I at 16-byte (4-instruction) fetch-group
  // granularity — a fetch happens on control-flow redirects and every
  // fourth sequential slot, as in a real front end.
  const std::uint64_t fetch = code_address(kernel, pc, fetch_slot_);
  if (need_fetch_ || fetch_slot_ % 4 == 0) {
    need_fetch_ = false;
    ++out[Event::kItlbLoads];
    if (!itlb_.access(fetch & ~(kPageBytes - 1))) {
      ++out[Event::kItlbLoadMisses];
      extra_frontend_ += cfg_.tlb_miss_penalty;
    }
    ++out[Event::kL1IcacheLoads];
    if (!l1i_.access(fetch)) {
      ++out[Event::kL1IcacheLoadMisses];
      extra_frontend_ += cfg_.l1i_miss_penalty;
      // Instruction fetch misses also consult the LLC.
      ++out[Event::kCacheReferences];
      if (!llc_.access(fetch)) {
        ++out[Event::kCacheMisses];
        extra_frontend_ += cfg_.llc_miss_penalty;
      }
    }
  }
  ++fetch_slot_;

  const double r = rng.uniform();
  if (r < ph.frac_branch) {
    // A branch: resolve the site's bias deterministically from its address
    // so gshare can learn stable sites, then add per-dynamic noise.
    ++out[Event::kBranchInstructions];
    ++out[Event::kBranchLoads];  // BTB lookup
    const std::uint64_t site = fetch & ~63ULL;
    const std::uint64_t h = mix64(site ^ layout_seed_);
    const double site_bias =
        0.5 + (ph.branch_bias - 0.5) *
                  ((h & 1) ? 1.0 : -1.0);  // taken- or not-taken-biased site
    bool taken = rng.chance(site_bias);
    if (rng.chance(ph.branch_noise)) taken = !taken;

    const bool dir_ok = bp_.execute(site, taken);
    if (!bp_.last_btb_hit()) {
      ++out[Event::kBranchLoadMisses];
      extra_frontend_ += cfg_.btb_miss_penalty;
    }
    if (!dir_ok) {
      ++out[Event::kBranchMisses];
      extra_frontend_ += cfg_.branch_miss_penalty;
    }

    if (taken) {
      if (rng.chance(ph.code_jump_spread)) pc.page = static_cast<std::uint32_t>(rng.below(pages));
      pc.block = static_cast<std::uint32_t>(rng.below(blocks));
      need_fetch_ = true;  // redirect: next instruction refetches
    } else {
      pc.block = (pc.block + 1) % blocks;
      if (pc.block == 0) pc.page = (pc.page + 1) % pages;
      need_fetch_ = true;  // fall-through to a new block address
    }
  } else if (r < ph.frac_branch + ph.frac_load) {
    const bool seq = !kernel && rng.chance(ph.hot_access_prob * ph.sequential_prob);
    const std::uint64_t addr = data_address(kernel, ph, false, rng);
    memory_access(addr, false, seq, ph, rng, out);
  } else if (r < ph.frac_branch + ph.frac_load + ph.frac_store) {
    const std::uint64_t addr = data_address(kernel, ph, true, rng);
    memory_access(addr, true, false, ph, rng, out);
  }
  // else: ALU/other — fetch cost only.
}

void Machine::context_switch(EventCounts& out) {
  ++out[Event::kContextSwitches];
  // The incoming context invalidates the (untagged) TLBs, perturbs the
  // small L1I, and pollutes the data caches — this is the mechanism that
  // couples OS activity to TLB/cache-miss events in the captured data and
  // the dominant miss-count noise source for interactive benign software.
  dtlb_.flush();
  itlb_.flush();
  l1i_.flush();
  l1d_.pollute(0.5, rng_());
  llc_.pollute(0.12, rng_());
  extra_frontend_ += cfg_.context_switch_penalty;
}

EventCounts Machine::next_interval() {
  HMD_REQUIRE_MSG(running(), "no active run — call start_run() first");
  const PhaseSpec& ph = phase_for_interval(interval_);
  EventCounts out{};
  extra_frontend_ = extra_backend_ = 0.0;

  double jitter =
      std::exp(rng_.gaussian(0.0, std::max(ph.instructions_jitter, 0.0)));
  // Scheduler preemption: some 10 ms windows only partially belong to the
  // profiled application, shrinking every volume-type count.
  double ctx_extra = 0.0;
  if (rng_.chance(cfg_.deschedule_prob)) {
    jitter *= rng_.uniform(cfg_.deschedule_min_share,
                           cfg_.deschedule_max_share);
    ctx_extra = 2.0;
  }
  const auto n_instr = static_cast<std::uint64_t>(
      std::max(64.0, ph.instructions_mean * jitter));

  // Pre-draw the OS noise for this interval and spread it over the stream.
  const std::uint64_t n_ctx =
      rng_.poisson(ph.context_switch_rate + ctx_extra);
  const std::uint64_t ctx_every =
      n_ctx > 0 ? std::max<std::uint64_t>(1, n_instr / (n_ctx + 1)) : 0;

  const double syscall_p = ph.syscalls_per_kilo_instr / 1000.0;

  for (std::uint64_t i = 0; i < n_instr; ++i) {
    if (ctx_every != 0 && i > 0 && i % ctx_every == 0 &&
        out[Event::kContextSwitches] < n_ctx) {
      context_switch(out);
    }
    execute_instruction(ph, /*kernel=*/false, rng_, out);
    if (syscall_p > 0.0 && rng_.chance(syscall_p)) {
      // Kernel burst: syscall entry runs kernel code against kernel data.
      // Entering and leaving the kernel both redirect the front end.
      const auto burst = static_cast<std::uint64_t>(
          std::max(8.0, rng_.gaussian(ph.kernel_burst_instr,
                                      ph.kernel_burst_instr * 0.2)));
      need_fetch_ = true;
      for (std::uint64_t k = 0; k < burst; ++k)
        execute_instruction(ph, /*kernel=*/true, rng_, out);
      need_fetch_ = true;
    }
  }

  // Software events beyond context switches.
  const std::uint64_t minor = rng_.poisson(ph.minor_fault_rate +
                                           (interval_ == 0 ? 40.0 : 0.0));
  const std::uint64_t major = rng_.poisson(ph.major_fault_rate);
  out[Event::kMinorFaults] = minor;
  out[Event::kMajorFaults] = major;
  out[Event::kPageFaults] = minor + major;
  out[Event::kCpuMigrations] = rng_.poisson(ph.migration_rate);
  out[Event::kAlignmentFaults] = rng_.poisson(ph.alignment_fault_rate);
  out[Event::kEmulationFaults] = rng_.poisson(ph.emulation_fault_rate);
  extra_backend_ +=
      static_cast<double>(major) * 2.0 * cfg_.context_switch_penalty;

  // Cycle accounting from the penalty model.
  const double busy =
      static_cast<double>(out[Event::kInstructions]) * cfg_.base_cpi;
  const double cycles = busy + extra_frontend_ + extra_backend_;
  out[Event::kCpuCycles] = static_cast<std::uint64_t>(cycles);
  out[Event::kStalledCyclesFrontend] =
      static_cast<std::uint64_t>(extra_frontend_);
  out[Event::kStalledCyclesBackend] =
      static_cast<std::uint64_t>(extra_backend_);
  out[Event::kRefCycles] = out[Event::kCpuCycles];
  out[Event::kBusCycles] = out[Event::kCpuCycles] / 4;

  ++interval_;
  return out;
}

}  // namespace hmd::sim
