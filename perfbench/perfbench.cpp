// Benchmark harness for the hmd pipeline: simulator -> capture -> feature
// study -> training -> lowering -> serving -> drift retrain and swap.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Inputs are made from --seed and from the fixed reference seed 2018 (see
// kReferenceSeed). Threads: 4 for capture and the grid; serving runs a
// controller, a collector and the workers of its config. Flags are parsed
// with bench/bench_util.h; a malformed value exits 2.
//
// Workloads, and why each is here:
//   paper_grid   The paper's Figure 3 computation: prepare_experiment on the
//                paper-scale corpus, then the 96-cell run_grid. Capture and
//                training do the work; the serving layer does none of it.
//   fleet_steady 2000 hosts, drift off, unlimited admission, no straggler
//                injection, 2 serving workers (controller + collector + 2
//                workers = 4 threads), 1000 ticks (10 s virtual) so that
//                throughput holds steady. Scoring, batching and the queue
//                hop do the work; capture runs only in setup.
//   fleet_drift  The bench/drift fleet: 600 hosts, held-out families, a
//                campaign at mid-run, a 48-tick refresh lag; adaptive pass
//                only, retraining on the cached split, one serving worker
//                (+ controller, collector and retrain thread = 4 threads).
//                The one workload where a model is written while serving
//                reads.
//
// Each workload owns the phase its name says: that phase is set up three
// times (setup_s is the median) and its main call is repeated over those
// inputs for at least --seconds (timings are medians). The result line must
// carry every end-to-end metric on every workload, so each workload also
// runs the phases it does not own on the reference input (companions): the
// quick-corpus grid, and the drift fleet for the serving and drift figures.
// Companion setups are not part of setup_s, and no companion is traced.
// All measured calls of a run are interleaved round by round.
//
// Straggler injection stays off on every fleet and no hedge field is read:
// the controller would only hedge the slowness it injected itself, so
// removing hedging cannot move any workload here. Batch latency percentiles
// are per-layer metrics only: run_fleet replays virtual ticks as fast as it
// can (closed loop, saturating), so its queues sit at capacity and batch
// latency measures queue depth times service time, not a latency a paced
// fleet would see.
//
// --trace 1 prints the per-layer metrics instead. It runs the owned phase
// once untraced, then again with spans around each public call of the
// layers (setup split into study capture, rank, deploy capture, train,
// lower and bank capture), checks that both give the same verdict hash and
// grid accuracies, and reports the traced-vs-untraced wall as the tracing
// overhead. Spans are printed to stderr at the end.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/experiment.h"
#include "core/online.h"
#include "harness.h"
#include "ml/feature_selection.h"
#include "ml/infer.h"
#include "ml/metrics.h"
#include "serve/controller.h"
#include "serve/fleet.h"
#include "sim/machine.h"
#include "sim/workloads.h"
#include "support/rng.h"

namespace {

using namespace hmd;
using perfbench::Checks;
using perfbench::Clock;
using perfbench::Metric;
using perfbench::Tracer;
using perfbench::median;
using perfbench::seconds_since;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kDriftWorkers = 1;  // + controller, collector, retrain

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  const core::ExperimentConfig shared = benchutil::config_from_args(argc, argv);
  Args a;
  a.seed = shared.corpus.seed;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workload") == 0)
      a.workload = benchutil::flag_value("--workload", argc, argv, i);
    if (std::strcmp(argv[i], "--seconds") == 0)
      seconds = benchutil::parse_u64_flag(
          "--seconds", benchutil::flag_value("--seconds", argc, argv, i));
    if (std::strcmp(argv[i], "--trace") == 0)
      trace = benchutil::parse_u64_flag(
          "--trace", benchutil::flag_value("--trace", argc, argv, i));
  }
  if (a.workload != "paper_grid" && a.workload != "fleet_steady" &&
      a.workload != "fleet_drift") {
    std::fprintf(stderr,
                 "unknown --workload '%s' (want paper_grid|fleet_steady|"
                 "fleet_drift)\n",
                 a.workload.c_str());
    std::exit(2);
  }
  if (seconds == 0 || seconds > 3600 || trace > 1) {
    std::fprintf(stderr, "--seconds must be 1..3600 and --trace 0 or 1\n");
    std::exit(2);
  }
  a.seconds = static_cast<double>(seconds);
  a.trace = trace == 1;
  return a;
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001B3ULL;
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Keep every benchmark thread busy for a second before timing anything:
/// CPUs that sat idle run several times slower for their first second of
/// work, which would land on the first setup.
void warm_up() {
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      const auto start = Clock::now();
      volatile double x = 1.0;
      while (seconds_since(start) < 1.0) x = x * 1.0000001;
    });
  for (std::thread& t : threads) t.join();
}

/// One measured operation of a run.
struct Measured {
  int min_reps = 1;
  bool timed = false;  ///< also repeat until --seconds have passed
  std::function<void()> op;
  int done = 0;
};

/// Run the operations round by round, each once per round while it still
/// needs repeats, so that a slow spell of the machine spreads over every
/// figure instead of landing on one.
void run_interleaved(std::vector<Measured>& ops, double seconds) {
  const auto start = Clock::now();
  for (bool any = true; any;) {
    any = false;
    for (Measured& m : ops) {
      if (m.done >= m.min_reps && !(m.timed && seconds_since(start) < seconds))
        continue;
      m.op();
      ++m.done;
      any = true;
    }
  }
}

// ---------------------------------------------------------------- configs

core::ExperimentConfig grid_config(bool paper_scale, std::uint64_t seed) {
  core::ExperimentConfig cfg =
      paper_scale ? benchutil::standard_config() : benchutil::quick_config();
  cfg.corpus.seed = seed;
  cfg.threads = kThreads;
  return cfg;
}

serve::FleetConfig steady_fleet(std::uint64_t seed) {
  serve::FleetConfig fc;
  fc.hosts = 2000;
  fc.ticks = 1000;
  fc.seed = seed;
  fc.threads = kThreads;
  return fc;
}

/// The bench/drift fleet.
serve::FleetConfig drift_fleet(std::uint64_t seed) {
  serve::FleetConfig fc;
  fc.hosts = 600;
  fc.ticks = 300;
  fc.seed = seed;
  fc.threads = kThreads;
  fc.drift.enabled = true;
  fc.drift.novel_templates = 4;
  fc.drift.campaign_fraction = 0.25;
  fc.drift.campaign_spread = 8;
  fc.drift.benign_shift = 0.2;
  fc.drift.benign_shift_ramp = 24;
  return fc;
}

serve::ServeConfig steady_serve() {
  serve::ServeConfig sc;
  sc.threads = kServeWorkers;
  sc.record_verdicts = false;
  return sc;
}

/// The bench/drift adaptive pass.
serve::ServeConfig adaptive_serve() {
  serve::ServeConfig sc;
  sc.threads = kDriftWorkers;
  sc.record_verdicts = true;
  sc.drift.enabled = true;
  sc.drift.check_interval = 16;
  sc.drift.warmup_checks = 2;
  sc.drift.min_shards = 2;
  sc.refresh.harvest_ticks = 16;
  sc.refresh.refresh_lag_ticks = 48;
  return sc;
}

std::uint32_t campaign_onset(const serve::FleetConfig& fc) {
  return fc.drift.campaign_onset > 0 ? fc.drift.campaign_onset : fc.ticks / 2;
}

/// Results of runs grouped by input seed; runs of one seed must agree.
template <typename T>
class Agreement {
 public:
  void add(std::uint64_t seed, T result) {
    runs_[seed].push_back(std::move(result));
  }
  bool ok() const {
    for (const auto& [seed, runs] : runs_)
      if (!perfbench::all_agree(runs)) return false;
    return true;
  }

 private:
  std::map<std::uint64_t, std::vector<T>> runs_;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// ------------------------------------------------------------ grid phase

std::uint64_t context_fingerprint(const core::ExperimentContext& ctx) {
  std::uint64_t h = kFnvBasis;
  for (const auto& row : ctx.capture.rows)
    h = fnv(h, row.data(), row.size() * sizeof(double));
  for (const ml::FeatureScore& f : ctx.ranking) {
    h = fnv(h, &f.feature, sizeof f.feature);
    h = fnv(h, &f.score, sizeof f.score);
  }
  return h;
}

/// A copy of `ctx` with an empty projection cache, so every grid
/// repetition builds its projections as a fresh run_grid caller does.
core::ExperimentContext fresh_projections(const core::ExperimentContext& ctx) {
  core::ExperimentContext copy = ctx;
  copy.projections = std::make_shared<core::detail::ProjectionCache>();
  return copy;
}

/// prepare_experiment once per config; each grid() then runs
/// run_grid(full_grid()) on the next context in turn.
class GridPhase {
 public:
  GridPhase(std::vector<core::ExperimentConfig> cfgs, Checks& checks)
      : cfgs_(std::move(cfgs)), checks_(checks) {
    Agreement<std::uint64_t> setups;
    for (const core::ExperimentConfig& cfg : cfgs_) {
      checks_.operation();
      const auto t0 = Clock::now();
      ctxs.push_back(core::prepare_experiment(cfg));
      setup_s.push_back(seconds_since(t0));
      setups.add(cfg.corpus.seed, context_fingerprint(ctxs.back()));
    }
    checks_.expect(setups.ok(), "prepare_experiment repetitions disagree");
  }

  void grid() {
    checks_.operation();
    const std::size_t c = next_++ % ctxs.size();
    const core::ExperimentContext ctx = fresh_projections(ctxs[c]);
    const auto t0 = Clock::now();
    const std::vector<core::CellResult> res =
        core::run_grid(ctx, core::full_grid(), kThreads);
    grid_s.push_back(seconds_since(t0));
    std::vector<double> acc;
    for (const core::CellResult& cell : res)
      acc.push_back(cell.metrics.accuracy);
    checks_.expect(acc.size() == 96, "full grid is not 96 cells");
    accuracy_.emplace(cfgs_[c].corpus.seed, mean(acc));
    if (accuracies.empty()) accuracies = acc;
    grids_.add(cfgs_[c].corpus.seed, std::move(acc));
  }

  /// Mean cell accuracy of the first corpus; checks the repeats.
  double mean_accuracy() {
    checks_.expect(grids_.ok(), "grid accuracies differ across repetitions");
    return accuracy_.at(cfgs_.front().corpus.seed);
  }

  std::vector<core::ExperimentContext> ctxs;
  std::vector<double> setup_s;
  std::vector<double> grid_s;
  std::vector<double> accuracies;  ///< first grid, cell order

 private:
  std::vector<core::ExperimentConfig> cfgs_;
  Checks& checks_;
  std::size_t next_ = 0;
  std::map<std::uint64_t, double> accuracy_;  ///< per corpus seed
  Agreement<std::vector<double>> grids_;
};

// ----------------------------------------------------------- fleet phase

std::vector<double> bank_scores(const ml::InferenceBackend& backend,
                                const serve::FleetSetup& fleet) {
  std::vector<double> out(fleet.bank.size() / fleet.num_features);
  backend.predict_proba_batch(fleet.bank, fleet.num_features, out);
  return out;
}

/// The flat backend the fleet serves with must score the bank bit for bit
/// like the scalar reference walk over the same model.
void check_backend(const serve::FleetSetup& fleet, Checks& checks) {
  checks.expect(fleet.backend->name() == "flat",
                "fleet model is not served by the flat backend");
  const std::vector<double> served = bank_scores(*fleet.backend, fleet);
  const auto scalar =
      ml::make_backend(*fleet.model, ml::InferBackendKind::kScalar);
  const std::vector<double> ref = bank_scores(*scalar, fleet);
  checks.expect(ref.size() == served.size() &&
                    std::memcmp(ref.data(), served.data(),
                                ref.size() * sizeof(double)) == 0,
                "flat backend scores differ from the scalar reference");
}

void check_conservation(const serve::ServeCounters& c, Checks& checks) {
  checks.expect(c.offered == c.emitted + c.missing,
                "offered != emitted + missing");
  checks.expect(c.emitted == c.admitted + c.shed,
                "emitted != admitted + shed");
  checks.expect(c.scored_rows == c.admitted, "scored_rows != admitted");
}

serve::FleetSetup setup_fleet(const serve::FleetConfig& fc,
                              std::vector<double>& setup_s, Checks& checks) {
  checks.operation();
  const auto t0 = Clock::now();
  serve::FleetSetup fleet = serve::make_fleet(fc);
  setup_s.push_back(seconds_since(t0));
  check_backend(fleet, checks);
  return fleet;
}

/// Serve `fleet` once under `sc`, checking conservation; returns the report
/// and its wall time measured outside the call.
serve::ServeReport serve_once(const serve::FleetSetup& fleet,
                              const serve::ServeConfig& sc, double& wall_s,
                              Checks& checks) {
  checks.operation();
  const auto t0 = Clock::now();
  serve::ServeReport rep = serve::run_fleet(fleet, sc);
  wall_s = seconds_since(t0);
  check_conservation(rep.counters, checks);
  return rep;
}

struct DriftOutcome {
  double detection_lag_ticks = 0.0;
  double refresh_tail_accuracy = 0.0;
};

/// Detection lag and post-swap tail accuracy of one adaptive run, checking
/// that the trigger fired and the swap landed. As in bench/drift, the lag
/// of a trigger that fired before the campaign began is 0.
DriftOutcome drift_outcome(const serve::FleetSetup& fleet,
                           const serve::ServeReport& rep, Checks& checks) {
  const serve::ServeCounters& c = rep.counters;
  checks.expect(c.drift_triggers > 0, "drift trigger never fired");
  checks.expect(c.model_swaps == 1, "model swap did not land");
  const std::uint32_t onset = campaign_onset(fleet.cfg);
  const std::uint32_t ticks = fleet.cfg.ticks;
  const std::uint32_t tail_from = std::min<std::uint32_t>(
      ticks, static_cast<std::uint32_t>(c.model_swap_tick) + 8);
  return {c.drift_trigger_tick >= onset
              ? static_cast<double>(c.drift_trigger_tick - onset + 1)
              : 0.0,
          serve::verdict_window_accuracy(fleet, rep.verdicts, tail_from,
                                         ticks)};
}

std::uint64_t fleet_fingerprint(const serve::FleetSetup& fleet) {
  const std::vector<double> scores = bank_scores(*fleet.backend, fleet);
  std::uint64_t h = fnv(kFnvBasis, fleet.bank.data(),
                        fleet.bank.size() * sizeof(double));
  h = fnv(h, scores.data(), scores.size() * sizeof(double));
  h = fnv(h, fleet.events.data(), fleet.events.size() * sizeof(sim::Event));
  for (const serve::HostProfile& p : fleet.hosts) {
    h = fnv(h, &p.onset_tick, sizeof p.onset_tick);
    h = fnv(h, &p.malware_app, sizeof p.malware_app);
    h = fnv(h, &p.campaign_onset, sizeof p.campaign_onset);
  }
  return h;
}

/// make_fleet once per config; a setup of a seed seen before must agree
/// with it, and its fleet is then shared. Steady and adaptive run_fleet
/// passes go over the configs in turn; every pass over one fleet and
/// serving config must give the same counters and verdict hash. Quality
/// figures come from the first fleet.
class FleetPhase {
 public:
  FleetPhase(const std::vector<serve::FleetConfig>& cfgs, Checks& checks)
      : checks_(checks) {
    Agreement<std::uint64_t> setups;
    for (const serve::FleetConfig& cfg : cfgs) {
      serve::FleetSetup fleet = setup_fleet(cfg, setup_s, checks_);
      setups.add(cfg.seed, fleet_fingerprint(fleet));
      const auto seen = std::find_if(
          fleets_.begin(), fleets_.end(),
          [&](const serve::FleetSetup& f) { return f.cfg.seed == cfg.seed; });
      order_.push_back(static_cast<std::size_t>(seen - fleets_.begin()));
      if (seen == fleets_.end()) fleets_.push_back(std::move(fleet));
    }
    checks_.expect(setups.ok(), "make_fleet repetitions disagree");
  }

  /// One steady pass that keeps the verdict stream, for fleet_accuracy.
  /// Timed passes do not keep it, as in bench/serve.
  void steady_accuracy() {
    serve::ServeConfig sc = steady_serve();
    sc.record_verdicts = true;
    const serve::FleetSetup& fleet = fleets_.front();
    const serve::ServeReport rep = steady_pass(fleet, sc);
    fleet_accuracy = serve::verdict_window_accuracy(fleet, rep.verdicts, 0,
                                                    fleet.cfg.ticks);
  }

  void steady(int passes) {
    for (int i = 0; i < passes; ++i) {
      const auto t0 = Clock::now();
      const serve::ServeReport rep =
          steady_pass(next(next_steady_), steady_serve());
      steady_ips.push_back(static_cast<double>(rep.counters.offered) /
                           seconds_since(t0));
    }
  }

  void adaptive() {
    const bool first = next_adaptive_ == 0;
    const serve::FleetSetup& fleet = next(next_adaptive_);
    double wall = 0.0;
    const serve::ServeReport rep =
        serve_once(fleet, adaptive_serve(), wall, checks_);
    adaptive_s.push_back(wall);
    const DriftOutcome d = drift_outcome(fleet, rep, checks_);
    if (first) {
      detection_lag_ticks = d.detection_lag_ticks;
      refresh_tail_accuracy = d.refresh_tail_accuracy;
    }
    adaptive_.add(fleet.cfg.seed, perfbench::counter_fields(rep.counters));
  }

  /// Repetition checks over every pass made.
  void finish() {
    checks_.expect(steady_.ok(),
                   "steady serving counters differ across repetitions");
    checks_.expect(adaptive_.ok(),
                   "adaptive serving counters differ across repetitions");
  }

  std::vector<double> setup_s;
  std::vector<double> steady_ips;  ///< offered intervals per wall second
  std::vector<double> adaptive_s;  ///< wall of each adaptive run_fleet
  double fleet_accuracy = 0.0;
  double detection_lag_ticks = 0.0;
  double refresh_tail_accuracy = 0.0;

 private:
  const serve::FleetSetup& next(std::size_t& counter) {
    return fleets_[order_[counter++ % order_.size()]];
  }

  serve::ServeReport steady_pass(const serve::FleetSetup& fleet,
                                 const serve::ServeConfig& sc) {
    double wall = 0.0;
    serve::ServeReport rep = serve_once(fleet, sc, wall, checks_);
    checks_.expect(rep.counters.shed == 0, "steady serving shed samples");
    steady_.add(fleet.cfg.seed, perfbench::counter_fields(rep.counters));
    return rep;
  }

  Checks& checks_;
  std::vector<serve::FleetSetup> fleets_;
  std::vector<std::size_t> order_;  ///< fleet index of each config
  std::size_t next_steady_ = 0;
  std::size_t next_adaptive_ = 0;
  Agreement<std::vector<std::uint64_t>> steady_;
  Agreement<std::vector<std::uint64_t>> adaptive_;
};

// ---------------------------------------------------- end-to-end metrics

/// Every owned phase sets up three inputs and reports the median setup
/// time: the reference input (seed 2018, the corpus default that the
/// committed BENCH_*.json baselines use) twice, the repeat checking that
/// setup is deterministic, and the --seed input once. Its main call then
/// goes over the distinct inputs in turn. Quality figures come from the
/// reference input, and the two reference samples anchor the timing
/// medians: across seeds a model's figures swing more than any bound could
/// allow (grid time by a fifth, fleet throughput by a sixth).
///
/// fleet_drift serves the reference drift fleet only: across seeds its
/// detection lag jumps between 10, 26 and 42 ticks, its retrain between
/// 1.0 and 2.7 s, and on some fleets the trigger fires before the campaign.
constexpr std::uint64_t kReferenceSeed = 2018;
/// Timed passes: steady over the 2000-host fleet (about 1.3 s each),
/// adaptive over the drift fleet (about 2.2 s each).
constexpr int kSteadyReps = 6;
constexpr int kAdaptiveReps = 5;
/// Steady passes over the 600-host drift fleet last about 0.1 s each; they
/// run in groups of four, six groups per run.
constexpr int kShortSteadyGroups = 6;
constexpr int kShortSteadyPasses = 4;
/// Companions: the phases a workload does not own, on the reference input.
constexpr int kCompanionGridReps = 4;
constexpr int kCompanionAdaptiveReps = 3;

template <typename Config>
std::vector<Config> owned_inputs(Config (*make)(std::uint64_t),
                                 std::uint64_t seed) {
  return {make(kReferenceSeed), make(kReferenceSeed), make(seed)};
}

core::ExperimentConfig paper_corpus(std::uint64_t seed) {
  return grid_config(true, seed);
}

std::vector<Metric> end_to_end(const Args& a, Checks& checks) {
  const std::vector<core::ExperimentConfig> quick_grid = {
      grid_config(false, kReferenceSeed)};
  const std::vector<serve::FleetConfig> drift_ref = {
      drift_fleet(kReferenceSeed)};
  std::unique_ptr<GridPhase> grid;
  std::unique_ptr<FleetPhase> fleet;  // serve_intervals_per_s, fleet_accuracy
  std::unique_ptr<FleetPhase> drift;  // the drift metrics, when not `fleet`
  std::vector<Measured> ops;
  double setup_s = 0.0;
  if (a.workload == "paper_grid") {
    grid = std::make_unique<GridPhase>(owned_inputs(paper_corpus, a.seed),
                                       checks);
    setup_s = median(grid->setup_s);
    fleet = std::make_unique<FleetPhase>(drift_ref, checks);
    const int inputs = static_cast<int>(grid->ctxs.size());
    ops.push_back({inputs, true, [&] { grid->grid(); }});  // one grid each
    ops.push_back({kShortSteadyGroups, false,
                   [&] { fleet->steady(kShortSteadyPasses); }});
    ops.push_back({kCompanionAdaptiveReps, false, [&] { fleet->adaptive(); }});
  } else if (a.workload == "fleet_steady") {
    fleet = std::make_unique<FleetPhase>(owned_inputs(steady_fleet, a.seed),
                                         checks);
    setup_s = median(fleet->setup_s);
    drift = std::make_unique<FleetPhase>(drift_ref, checks);
    grid = std::make_unique<GridPhase>(quick_grid, checks);
    ops.push_back({kSteadyReps, true, [&] { fleet->steady(1); }});
    ops.push_back({kCompanionAdaptiveReps, false, [&] { drift->adaptive(); }});
    ops.push_back({kCompanionGridReps, false, [&] { grid->grid(); }});
  } else {
    fleet = std::make_unique<FleetPhase>(
        std::vector<serve::FleetConfig>(3, drift_fleet(kReferenceSeed)),
        checks);
    setup_s = median(fleet->setup_s);
    grid = std::make_unique<GridPhase>(quick_grid, checks);
    ops.push_back({kAdaptiveReps, true, [&] { fleet->adaptive(); }});
    ops.push_back({kShortSteadyGroups, false,
                   [&] { fleet->steady(kShortSteadyPasses); }});
    ops.push_back({kCompanionGridReps, false, [&] { grid->grid(); }});
  }
  fleet->steady_accuracy();
  run_interleaved(ops, a.seconds);
  fleet->finish();
  const FleetPhase& d = drift ? *drift : *fleet;
  if (drift) drift->finish();
  return {
      {"setup_s", setup_s, "s"},
      {"grid_s", median(grid->grid_s), "s"},
      {"serve_intervals_per_s", median(fleet->steady_ips), "1/s"},
      {"drift_run_s", median(d.adaptive_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"grid_mean_accuracy", grid->mean_accuracy(), "ratio"},
      {"fleet_accuracy", fleet->fleet_accuracy, "ratio"},
      {"detection_lag_ticks", d.detection_lag_ticks, "ticks"},
      {"refresh_tail_accuracy", d.refresh_tail_accuracy, "ratio"},
  };
}

// ------------------------------------------------------ per-layer metrics

/// Per-layer values; every one is printed on every workload, 0 where the
/// workload does not run that layer.
struct Layers {
  double sim_interval_us = 0, sim_intervals = 0;
  double study_capture_s = 0, deploy_capture_s = 0, bank_capture_s = 0;
  double container_runs = 0, capture_s = 0, useful_runs = 0;
  double rank_ms = 0, projection_ms = 0, step_ns = 0;
  double train_s = 0, train_cell_ms_max = 0, fleet_train_ms = 0, lower_ms = 0;
  double score_ns_per_row = 0, gen_features_ns = 0;
  serve::ServeReport serve;
  double serve_wall_s = 0;
  std::size_t serve_workers = 0;
  double untraced_wall_s = 0, traced_wall_s = 0;
};

/// A captured corpus's container runs, and how many of them produced rows
/// that were kept (retries and quarantined apps are wasted work).
void count_runs(const hpc::Capture& cap, double seconds, Layers& l) {
  l.container_runs += static_cast<double>(cap.total_runs);
  l.capture_s += seconds;
  for (const hpc::AppCaptureReport& app : cap.report.apps)
    if (!app.quarantined)
      l.useful_runs += static_cast<double>(app.attempts - app.retries);
}

template <typename Fn>
decltype(auto) timed_span(Tracer& t, const char* name, int parent, double& s,
                          Fn&& fn) {
  int id = -1;
  struct Account {
    Tracer& t;
    const int& id;
    double& s;
    ~Account() { s += t.duration_s(id); }
  } account{t, id, s};
  return t.span(name, parent, std::forward<Fn>(fn), &id);
}

/// The study half of prepare_experiment, one span per layer call.
core::ExperimentContext traced_study(const core::ExperimentConfig& cfg,
                                     Tracer& t, int parent, Layers& l) {
  core::ExperimentContext ctx;
  ctx.config = cfg;
  const auto corpus = sim::build_corpus(cfg.corpus);
  hpc::CaptureConfig cc = cfg.capture;
  if (cc.threads == 0) cc.threads = cfg.threads;
  double s = 0.0;
  ctx.capture = timed_span(t, "hpc.study_capture", parent, s, [&] {
    return hpc::capture_all_events(corpus, cc);
  });
  l.study_capture_s += s;
  count_runs(ctx.capture, s, l);
  ctx.full = core::to_dataset(ctx.capture);
  Rng split_rng(cfg.split_seed);
  ctx.split = ml::stratified_group_split(ctx.full, cfg.train_fraction,
                                         split_rng);
  double rank_s = 0.0;
  ctx.ranking = timed_span(t, "core.rank", parent, rank_s, [&] {
    return ml::prune_redundant(ctx.split.train,
                               ml::correlation_ranking(ctx.split.train));
  });
  l.rank_ms += 1e3 * rank_s;
  return ctx;
}

/// Median ns per Machine::next_interval over one app of each of the first
/// four benign and malware templates.
void sim_probe(std::uint64_t seed, std::uint32_t intervals, Layers& l) {
  std::vector<double> us;
  sim::Machine m;
  for (std::size_t t = 0; t < 4; ++t) {
    for (const sim::AppProfile& app :
         {sim::make_benign(t, 0, seed, intervals),
          sim::make_malware(t, 0, seed, intervals)}) {
      m.reset();
      m.start_run(app, 0);
      while (m.running()) {
        const auto t0 = Clock::now();
        static_cast<void>(m.next_interval());  // advances the machine
        us.push_back(1e6 * seconds_since(t0));
      }
    }
  }
  const perfbench::PercentileReport rep = perfbench::percentile_report(us);
  l.sim_interval_us = rep.median;
  l.sim_intervals = static_cast<double>(rep.count);
  std::fprintf(stderr,
               "[perfbench] sim.next_interval: median %.1f us, p%.1f %.1f "
               "us, %zu samples\n",
               rep.median, rep.high_pct, rep.high, rep.count);
}

/// paper_grid, traced: the study half of prepare_experiment and the grid,
/// with one span per layer call and one span per grid cell.
Layers traced_paper_grid(const Args& a, Tracer& t, Checks& checks) {
  Layers l;
  const core::ExperimentConfig cfg = grid_config(true, a.seed);
  GridPhase ref({cfg}, checks);
  ref.grid();
  l.untraced_wall_s = ref.setup_s.front() + ref.grid_s.front();

  checks.operation();
  int setup_id = -1;
  const core::ExperimentContext ctx = t.span(
      "setup", -1, [&] { return traced_study(cfg, t, setup_id, l); },
      &setup_id);
  checks.expect(context_fingerprint(ctx) == context_fingerprint(ref.ctxs.front()),
                "traced setup differs from prepare_experiment");

  struct CellOut {
    double accuracy = 0.0, train_s = 0.0, lower_s = 0.0;
    double start_s = 0.0, end_s = 0.0;
  };
  checks.operation();
  const std::vector<core::GridCell> cells = core::full_grid();
  int grid_id = -1;
  const std::vector<CellOut> outs = t.span(
      "grid", -1,
      [&] {
        const core::ExperimentContext gctx = fresh_projections(ctx);
        double proj_s = 0.0;
        timed_span(t, "core.projection", grid_id, proj_s, [&] {
          for (const std::size_t hpcs : {16U, 8U, 4U, 2U})
            static_cast<void>(gctx.projected_split(hpcs));
        });
        l.projection_ms = 1e3 * proj_s;
        // run_cell_full, one layer call at a time, on the grid's workers.
        return core::map_grid(gctx, cells, kThreads,
                              [&](const core::GridCell& c) {
          CellOut o;
          o.start_s = t.now();
          const ml::Split& sp = gctx.projected_split(c.hpcs);
          auto det = ml::make_detector(c.classifier, c.ensemble,
                                       gctx.config.model_seed);
          auto t0 = Clock::now();
          det->train(sp.train);
          o.train_s = seconds_since(t0);
          t0 = Clock::now();
          const auto backend = ml::make_active_backend(*det);
          o.lower_s = seconds_since(t0);
          const std::vector<double> scores =
              backend->predict_proba_batch(sp.test);
          std::vector<int> labels;
          std::vector<double> weights;
          for (std::size_t i = 0; i < sp.test.num_rows(); ++i) {
            labels.push_back(sp.test.label(i));
            weights.push_back(sp.test.weight(i));
          }
          o.accuracy = ml::detector_metrics(scores, labels, weights).accuracy;
          o.end_s = t.now();
          return o;
        });
      },
      &grid_id);
  std::vector<double> accuracies;
  for (const CellOut& o : outs) {
    t.record({"ml.cell", grid_id, o.start_s, o.end_s});
    accuracies.push_back(o.accuracy);
    l.train_s += o.train_s;
    l.lower_ms += 1e3 * o.lower_s;
    l.train_cell_ms_max =
        std::max(l.train_cell_ms_max, 1e3 * (o.end_s - o.start_s));
  }
  checks.expect(accuracies == ref.accuracies,
                "traced grid accuracies differ from run_grid");
  l.traced_wall_s = t.duration_s(setup_id) + t.duration_s(grid_id);
  sim_probe(a.seed, cfg.corpus.intervals_per_app, l);
  return l;
}

/// serve::make_fleet, one span per layer call, checked against `fleet`.
void traced_fleet_setup(const serve::FleetConfig& cfg,
                        const serve::FleetSetup& fleet, Tracer& t, int parent,
                        Layers& l, Checks& checks) {
  core::ExperimentConfig exp;
  exp.corpus.seed = cfg.seed;
  exp.corpus.benign_per_template = cfg.train_variants;
  exp.corpus.malware_per_template = cfg.train_variants;
  exp.corpus.intervals_per_app = cfg.train_intervals;
  if (cfg.drift.enabled)
    exp.corpus.malware_template_limit =
        sim::malware_template_count() - cfg.drift.novel_templates;
  exp.threads = cfg.threads;
  exp.capture.threads = cfg.threads;
  const core::ExperimentContext ctx = traced_study(exp, t, parent, l);
  std::vector<sim::Event> events;
  for (const std::size_t f : ctx.top_features(cfg.hpcs))
    events.push_back(sim::event_from_name(ctx.full.feature_name(f)));
  checks.expect(events == fleet.events,
                "traced feature study picked other events than make_fleet");

  sim::CorpusConfig deploy = exp.corpus;
  deploy.benign_per_template = cfg.train_variants + 2;
  deploy.malware_per_template = cfg.train_variants + 2;
  double s = 0.0;
  const hpc::Capture deploy_cap =
      timed_span(t, "hpc.deploy_capture", parent, s, [&] {
        return hpc::capture_corpus(sim::build_corpus(deploy), events,
                                   exp.capture);
      });
  l.deploy_capture_s = s;
  count_runs(deploy_cap, s, l);
  const ml::Dataset train = core::to_dataset(deploy_cap);

  s = 0.0;
  const std::shared_ptr<ml::Classifier> model =
      timed_span(t, "ml.fleet_train", parent, s, [&] {
        std::shared_ptr<ml::Classifier> m = ml::make_detector(
            fleet.model_kind, fleet.model_ensemble, fleet.model_seed);
        m->train(train);
        return m;
      });
  l.fleet_train_ms = 1e3 * s;
  s = 0.0;
  const auto backend = timed_span(t, "ml.lower", parent, s, [&] {
    return ml::make_active_backend(*model);
  });
  l.lower_ms = 1e3 * s;

  std::vector<sim::AppProfile> bank_corpus;
  const std::uint32_t unseen = deploy.benign_per_template;
  for (std::size_t i = 0; i < sim::benign_template_count(); ++i)
    bank_corpus.push_back(
        sim::make_benign(i, unseen, cfg.seed, cfg.bank_intervals));
  for (std::size_t i = 0; i < sim::malware_template_count(); ++i)
    bank_corpus.push_back(
        sim::make_malware(i, unseen, cfg.seed, cfg.bank_intervals));
  s = 0.0;
  const hpc::Capture bank = timed_span(t, "hpc.bank_capture", parent, s, [&] {
    return hpc::capture_corpus(bank_corpus, events, exp.capture);
  });
  l.bank_capture_s = s;
  count_runs(bank, s, l);

  std::vector<double> bank_rows;
  for (const auto& row : bank.rows)
    bank_rows.insert(bank_rows.end(), row.begin(), row.end());
  checks.expect(bank_rows == fleet.bank,
                "traced bank capture differs from make_fleet");
  checks.expect(bank_scores(*backend, fleet) == bank_scores(*fleet.backend, fleet),
                "traced model scores differ from make_fleet's model");
}

/// Median of `reps` timings of `op`, each divided by `per`.
template <typename Op>
double probe_ns(std::size_t reps, double per, Op&& op) {
  std::vector<double> ns;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    op();
    ns.push_back(1e9 * seconds_since(t0) / per);
  }
  return median(std::move(ns));
}

/// Single-thread probes of the serving hot path on the fleet's own data:
/// one OnlineState step, one flat-backend row in fleet-shaped batches, and
/// one gen_features call.
void serving_probes(const serve::FleetSetup& fleet, std::size_t batch_rows,
                    Layers& l) {
  const std::vector<double> scores = bank_scores(*fleet.backend, fleet);
  const std::size_t hosts = fleet.hosts.size();
  constexpr std::size_t kTicks = 200;
  const core::OnlineConfig online{};
  std::size_t alarms = 0;
  l.step_ns = probe_ns(5, static_cast<double>(hosts * kTicks), [&] {
    std::vector<core::OnlineState> states(hosts);
    for (std::size_t tick = 0; tick < kTicks; ++tick)
      for (std::size_t h = 0; h < hosts; ++h)
        alarms += states[h]
                      .step_score(online, scores[(h * 7 + tick) % scores.size()])
                      .alarm;
  });

  const std::size_t nf = fleet.num_features;
  const std::size_t bank_rows = fleet.bank.size() / nf;
  const std::size_t batch = std::clamp<std::size_t>(batch_rows, 1, bank_rows);
  const std::size_t batches = bank_rows / batch;
  std::vector<double> out(batch);
  double sink = 0.0;
  l.score_ns_per_row = probe_ns(5, static_cast<double>(20 * batches * batch), [&] {
    for (std::size_t pass = 0; pass < 20; ++pass)
      for (std::size_t b = 0; b < batches; ++b) {
        fleet.backend->predict_proba_batch(
            std::span<const double>(fleet.bank).subspan(b * batch * nf,
                                                        batch * nf),
            nf, out);
        sink += out[0];
      }
  });

  std::vector<double> row(nf);
  l.gen_features_ns = probe_ns(5, static_cast<double>(hosts * 50), [&] {
    for (std::uint32_t tick = 0; tick < 50; ++tick)
      for (std::uint32_t h = 0; h < hosts; ++h) {
        serve::gen_features(fleet, h, tick, row);
        sink += row[0];
      }
  });
  std::fprintf(stderr,
               "[perfbench] probes: step %.2f ns, score %.2f ns/row (%zu-row "
               "batches), gen_features %.2f ns (checksums %zu %.6g)\n",
               l.step_ns, l.score_ns_per_row, batch, l.gen_features_ns, alarms,
               sink);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Total time a serving stage was busy, in microseconds.
double busy_us(const serve::LatencyStats& s) {
  return s.mean() * static_cast<double>(s.count());
}

/// fleet_steady / fleet_drift, traced: make_fleet replayed call by call,
/// then the workload's serving run inside a span.
Layers traced_fleet(bool drift, Tracer& t, Checks& checks) {
  Layers l;
  const serve::FleetConfig fc =
      drift ? drift_fleet(kReferenceSeed) : steady_fleet(kReferenceSeed);
  const serve::ServeConfig sc = drift ? adaptive_serve() : steady_serve();
  std::vector<double> setup_s;
  const serve::FleetSetup fleet = setup_fleet(fc, setup_s, checks);
  double ref_wall = 0.0;
  const serve::ServeCounters untraced =
      serve_once(fleet, sc, ref_wall, checks).counters;
  l.untraced_wall_s = setup_s.front() + ref_wall;

  checks.operation();
  int setup_id = -1;
  t.span("setup", -1,
         [&] { traced_fleet_setup(fc, fleet, t, setup_id, l, checks); },
         &setup_id);

  checks.operation();
  int serve_id = -1;
  l.serve = t.span("serve", -1, [&] { return serve::run_fleet(fleet, sc); },
                   &serve_id);
  l.serve_wall_s = t.duration_s(serve_id);
  l.serve_workers = sc.threads;
  check_conservation(l.serve.counters, checks);
  checks.expect(perfbench::counter_fields(l.serve.counters) ==
                    perfbench::counter_fields(untraced),
                "traced serving run differs from the untraced one");
  if (drift) {
    static_cast<void>(drift_outcome(fleet, l.serve, checks));
  } else {
    checks.expect(l.serve.counters.shed == 0, "steady serving shed samples");
  }
  l.traced_wall_s = t.duration_s(setup_id) + l.serve_wall_s;
  const serve::ServeTiming& st = l.serve.timing;
  const double wall_us = 1e3 * st.wall_ms;
  const double worker_us = wall_us * static_cast<double>(sc.threads);
  std::fprintf(stderr,
               "[perfbench] serving wall %.3f s: controller gen %.1f%%; "
               "%zu workers score %.1f%% and step %.1f%% of their time\n",
               1e-3 * st.wall_ms, 100.0 * busy_us(st.gen) / wall_us,
               sc.threads, 100.0 * busy_us(st.score) / worker_us,
               100.0 * busy_us(st.step) / worker_us);

  sim_probe(fc.seed, fc.train_intervals, l);
  const double batches = static_cast<double>(l.serve.counters.batches);
  serving_probes(fleet,
                 static_cast<std::size_t>(std::lround(
                     static_cast<double>(l.serve.counters.scored_rows) /
                     std::max(1.0, batches))),
                 l);
  return l;
}

std::vector<Metric> per_layer(const Layers& l) {
  const serve::ServeTiming& st = l.serve.timing;
  const serve::ServeCounters& sc = l.serve.counters;
  const double wall_us = 1e3 * st.wall_ms;
  const double batches = static_cast<double>(sc.batches);
  return {
      {"sim.interval_us", l.sim_interval_us, "us"},
      {"sim.intervals", l.sim_intervals, "count"},
      {"hpc.study_capture_s", l.study_capture_s, "s"},
      {"hpc.deploy_capture_s", l.deploy_capture_s, "s"},
      {"hpc.bank_capture_s", l.bank_capture_s, "s"},
      {"hpc.container_runs", l.container_runs, "count"},
      {"hpc.runs_per_s", ratio(l.container_runs, l.capture_s), "1/s"},
      {"hpc.useful_run_ratio", ratio(l.useful_runs, l.container_runs),
       "ratio"},
      {"core.rank_ms", l.rank_ms, "ms"},
      {"core.projection_ms", l.projection_ms, "ms"},
      {"core.step_ns", l.step_ns, "ns"},
      {"ml.train_s", l.train_s, "s"},
      {"ml.train_cell_ms_max", l.train_cell_ms_max, "ms"},
      {"ml.fleet_train_ms", l.fleet_train_ms, "ms"},
      {"ml.lower_ms", l.lower_ms, "ms"},
      {"ml.score_ns_per_row", l.score_ns_per_row, "ns"},
      {"serve.gen_features_ns", l.gen_features_ns, "ns"},
      {"serve.gen_us_p50", st.gen.p50(), "us"},
      {"serve.queue_wait_us_p50", st.queue.p50(), "us"},
      {"serve.queue_wait_us_p99", st.queue.p99(), "us"},
      {"serve.score_us_p50", st.score.p50(), "us"},
      {"serve.step_us_p50", st.step.p50(), "us"},
      {"serve.batch_e2e_us_p50", st.e2e.p50(), "us"},
      {"serve.batch_e2e_us_p99", st.e2e.p99(), "us"},
      {"serve.batches", batches, "count"},
      {"serve.rows_per_batch",
       ratio(static_cast<double>(sc.scored_rows), batches), "count"},
      {"serve.backpressure_stalls",
       static_cast<double>(st.backpressure_stalls), "count"},
      {"serve.stall_ratio",
       ratio(static_cast<double>(st.backpressure_stalls), batches), "ratio"},
      {"serve.worker_busy_share",
       ratio(busy_us(st.score) + busy_us(st.step),
             static_cast<double>(l.serve_workers) * wall_us),
       "ratio"},
      {"serve.controller_busy_share", ratio(busy_us(st.gen), wall_us),
       "ratio"},
      {"serve.retrain_ms", st.retrain_ms, "ms"},
      {"serve.swap_wait_ms", st.swap_wait_ms, "ms"},
      {"serve.barrier_ms", st.barrier_ms, "ms"},
      {"serve.drift_checks", static_cast<double>(sc.drift_checks), "count"},
      {"trace.untraced_wall_s", l.untraced_wall_s, "s"},
      {"trace.traced_wall_s", l.traced_wall_s, "s"},
      {"trace.overhead_pct",
       100.0 * ratio(l.traced_wall_s - l.untraced_wall_s, l.untraced_wall_s),
       "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  ml::set_infer_backend_kind(ml::InferBackendKind::kFlat);
  warm_up();
  Checks checks;
  std::vector<Metric> metrics;
  try {
    if (!args.trace) {
      metrics = end_to_end(args, checks);
    } else {
      Tracer tracer;
      const Layers layers =
          args.workload == "paper_grid"
              ? traced_paper_grid(args, tracer, checks)
              : traced_fleet(args.workload == "fleet_drift", tracer, checks);
      metrics = per_layer(layers);
      tracer.write(stderr);
      std::fprintf(stderr,
                   "[perfbench] tracing overhead: traced %.3f s vs untraced "
                   "%.3f s\n",
                   layers.traced_wall_s, layers.untraced_wall_s);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[perfbench] %s: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (Metric& m : metrics) {
    checks.expect(std::isfinite(m.value), m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
    std::fprintf(stderr, "[perfbench] %-28s %16.6f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::result_line(checks, metrics).c_str());
  return 0;
}
