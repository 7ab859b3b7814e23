// Shared plumbing for the reproduction harnesses (one binary per paper
// table/figure). Every binary accepts:
//   --quick      run on a reduced corpus (fast smoke mode, shapes only)
//   --seed N     override the corpus seed
//   --threads N  worker threads for capture + grid evaluation
//                (default: HMD_THREADS env, else hardware_concurrency;
//                 results are bit-identical for any thread count)
//   --faults P   fault-injection profile for the capture campaign:
//                none (default) | light | heavy (see hpc::fault_profile)
//   --fault-seed N  seed of the fault stream (default 0); faulted captures
//                are bit-identical for a given (corpus seed, fault seed)
//   --checkpoint DIR  persist per-app capture state to DIR as each app
//                completes (fresh campaign; DIR must not already hold one)
//   --resume     with --checkpoint: reload completed apps from DIR and
//                re-execute only quarantined or missing ones. The resumed
//                capture is bit-identical to an uninterrupted run; a config
//                fingerprint mismatch (seed, faults, events, protocol, ...)
//                is a hard error.
//   --backend B  inference backend for grid evaluation: flat (default,
//                batched branch-free engine) | scalar (reference row walk).
//                Backends are bit-identical, so all emitted tables/figures
//                are byte-identical across this flag (ci.sh diffs them) —
//                it only changes evaluation speed.
//
// Serving benches (bench/serve) additionally share, via serve_args:
//   --hosts N        fleet size (hosts monitored concurrently)
//   --duration-ms N  fleet run length in virtual milliseconds (10 ms/tick)
//   --out P          JSON report path
//
// CLI error contract: an unknown value for any of these flags, a numeric
// value that is negative or overflows its type, or a flag that names a
// value but sits last on the command line, reports the problem on stderr
// and exits 2 — flags are never silently ignored or clamped.
#pragma once

#include <bit>
#include <cerrno>
#include <chrono>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/hmd.h"
#include "hpc/faults.h"
#include "serve/controller.h"
#include "support/parallel.h"
#include "support/table.h"

namespace hmd::benchutil {

/// Paper-scale configuration: 32 behaviour templates instantiated into a
/// 142-application corpus, 20 intervals per app, 4-counter PMU, multi-run
/// batched capture.
inline core::ExperimentConfig standard_config() {
  core::ExperimentConfig cfg;
  return cfg;  // defaults are the paper-scale settings
}

/// Reduced configuration for smoke runs (--quick).
inline core::ExperimentConfig quick_config() {
  core::ExperimentConfig cfg;
  cfg.corpus.benign_per_template = 2;
  cfg.corpus.malware_per_template = 2;
  cfg.corpus.intervals_per_app = 10;
  return cfg;
}

/// The value of a flag that requires one. A value-taking flag as the last
/// argument is a user error, not something to silently ignore (the old
/// behaviour: `fig3_accuracy --seed` ran seed 0 without a word).
inline const char* flag_value(const char* flag, int argc, char** argv,
                              int i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "missing value for %s\n", flag);
    std::exit(2);
  }
  return argv[i + 1];
}

/// Strict decimal parse for seed-style flags: every character must be a
/// digit (which also rejects negative values), and the value must fit a
/// uint64. strtoull's permissive parsing ("7x" -> 7, "garbage" -> 0) would
/// silently run the wrong experiment, and its ERANGE clamp would quietly
/// turn an overflowing seed into 2^64-1 — report and exit 2 like every
/// other malformed flag instead.
inline std::uint64_t parse_u64_flag(const char* flag, const char* text) {
  bool ok = *text != '\0';
  for (const char* p = text; *p != '\0'; ++p)
    ok = ok && std::isdigit(static_cast<unsigned char>(*p)) != 0;
  if (!ok) {
    std::fprintf(stderr, "invalid value '%s' for %s (want a non-negative "
                         "integer)\n",
                 text, flag);
    std::exit(2);
  }
  errno = 0;
  const std::uint64_t value = std::strtoull(text, nullptr, 10);
  if (errno == ERANGE) {
    std::fprintf(stderr, "value '%s' for %s is out of range (max %llu)\n",
                 text, flag,
                 static_cast<unsigned long long>(~0ULL));
    std::exit(2);
  }
  return value;
}

/// Strict parse for real-valued flags (budgets, rates, tolerances): the
/// whole string must be a finite number >= 0. strtod alone turns "abc"
/// into 0, and 0 means "budget disabled" for most of them, so a typo would
/// quietly switch a gate off — report and exit 2 instead.
inline double parse_double_flag(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value) || value < 0.0) {
    std::fprintf(stderr, "invalid value '%s' for %s (want a finite number "
                         ">= 0)\n",
                 text, flag);
    std::exit(2);
  }
  return value;
}

/// Steady-clock milliseconds, for wall-clock deltas in the benches.
inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline core::ExperimentConfig config_from_args(int argc, char** argv) {
  // Parse every flag into locals first; the base config (standard vs
  // --quick) is chosen afterwards. Applying --quick in the parse loop used
  // to reassign the whole ExperimentConfig, silently discarding an
  // already-parsed --seed ("fig3_accuracy --seed 7 --quick" ran seed 0).
  bool quick = false;
  std::optional<std::uint64_t> seed;
  std::size_t threads = 0;
  hpc::FaultProfile profile = hpc::FaultProfile::kNone;
  std::uint64_t fault_seed = 0;
  std::string checkpoint_dir;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--resume") == 0) resume = true;
    if (std::strcmp(argv[i], "--seed") == 0)
      seed = parse_u64_flag("--seed", flag_value("--seed", argc, argv, i));
    if (std::strcmp(argv[i], "--threads") == 0) {
      const char* value = flag_value("--threads", argc, argv, i);
      const auto parsed = support::parse_thread_count(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "invalid value '%s' for --threads (want a positive "
                     "integer <= 1024)\n",
                     value);
        std::exit(2);
      }
      threads = *parsed;
    }
    if (std::strcmp(argv[i], "--faults") == 0) {
      const char* value = flag_value("--faults", argc, argv, i);
      const auto parsed = hpc::fault_profile_from_name(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "unknown --faults profile '%s' (want none|light|heavy)\n",
                     value);
        std::exit(2);
      }
      profile = *parsed;
    }
    if (std::strcmp(argv[i], "--fault-seed") == 0)
      fault_seed = parse_u64_flag("--fault-seed",
                                  flag_value("--fault-seed", argc, argv, i));
    if (std::strcmp(argv[i], "--checkpoint") == 0)
      checkpoint_dir = flag_value("--checkpoint", argc, argv, i);
    if (std::strcmp(argv[i], "--backend") == 0) {
      const char* value = flag_value("--backend", argc, argv, i);
      const auto parsed = ml::backend_kind_from_name(value);
      if (!parsed) {
        std::fprintf(stderr,
                     "unknown --backend '%s' (want scalar|flat)\n", value);
        std::exit(2);
      }
      ml::set_infer_backend_kind(*parsed);
    }
  }
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint DIR\n");
    std::exit(2);
  }

  core::ExperimentConfig cfg = quick ? quick_config() : standard_config();
  if (seed) cfg.corpus.seed = *seed;
  cfg.threads = threads;  // 0 falls back to HMD_THREADS, then auto
  cfg.capture.faults = hpc::fault_profile(profile, fault_seed);
  cfg.capture.checkpoint_dir = std::move(checkpoint_dir);
  cfg.capture.resume = resume;
  return cfg;
}

/// Capture the corpus with progress reporting on stderr. If
/// `capture_ms_out` is non-null it receives the capture wall-clock.
inline core::ExperimentContext prepare(const core::ExperimentConfig& cfg,
                                       const char* what,
                                       long long* capture_ms_out = nullptr) {
  // One banner line carries the whole execution shape: thread count and
  // the inference backend actually in effect (flag or HMD_INFER_BACKEND).
  std::fprintf(stderr,
               "[%s] capturing corpus (%u benign + %u malware variants per "
               "template, %u intervals, multi-run 4-counter PMU, %zu "
               "threads, %s inference backend, faults: %s)...\n",
               what, cfg.corpus.benign_per_template,
               cfg.corpus.malware_per_template, cfg.corpus.intervals_per_app,
               support::resolve_threads(cfg.threads),
               std::string(ml::backend_kind_name(ml::infer_backend_kind()))
                   .c_str(),
               hpc::describe_faults(cfg.capture.faults).c_str());
  if (!cfg.capture.checkpoint_dir.empty()) {
    std::fprintf(stderr, "[%s] checkpoint: %s (%s campaign)\n", what,
                 cfg.capture.checkpoint_dir.c_str(),
                 cfg.capture.resume ? "resuming" : "fresh");
  }
  const double t0 = now_ms();
  auto ctx = core::prepare_experiment(cfg);
  const auto ms = static_cast<long long>(now_ms() - t0);
  std::fprintf(stderr,
               "[%s] capture done: %zu samples (%zu train / %zu test), %llu "
               "container runs, %lld ms\n",
               what, ctx.full.num_rows(), ctx.split.train.num_rows(),
               ctx.split.test.num_rows(),
               static_cast<unsigned long long>(ctx.capture.total_runs), ms);
  const hpc::CaptureResumeStats& rs = ctx.resume_stats;
  if (rs.checkpointing) {
    std::fprintf(stderr,
                 "[%s] checkpoint: %zu apps reused (%llu runs from previous "
                 "sessions), %zu executed (%llu runs this session)\n",
                 what, rs.loaded_apps,
                 static_cast<unsigned long long>(rs.loaded_runs),
                 rs.executed_apps,
                 static_cast<unsigned long long>(rs.session_runs));
  }
  const hpc::CaptureReport& rep = ctx.capture.report;
  if (rep.total_retries() > 0 || rep.quarantined_apps() > 0 ||
      rep.total_imputed_cells() > 0 || !rep.degraded_events.empty()) {
    std::fprintf(stderr,
                 "[%s] capture faults handled: %llu retries (%llu ms backoff "
                 "accounted), %zu/%zu apps quarantined, %zu/%zu cells "
                 "imputed, %zu events degraded\n",
                 what,
                 static_cast<unsigned long long>(rep.total_retries()),
                 static_cast<unsigned long long>(rep.total_backoff_ms()),
                 rep.quarantined_apps(), rep.apps.size(),
                 rep.total_imputed_cells(), rep.total_cells(),
                 rep.degraded_events.size());
  }
  if (capture_ms_out != nullptr) *capture_ms_out = ms;
  return ctx;
}

/// Flags shared by the serving benches, parsed with the same error
/// contract as the experiment flags (unknown/malformed values exit 2).
/// Zero / nullptr fields mean "flag absent — use the bench's default".
struct ServeArgs {
  std::size_t hosts = 0;          ///< --hosts: fleet size
  std::uint64_t duration_ms = 0;  ///< --duration-ms: virtual run length
  const char* out = nullptr;      ///< --out: JSON report path
};

inline ServeArgs serve_args(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--hosts") == 0) {
      const std::uint64_t v =
          parse_u64_flag("--hosts", flag_value("--hosts", argc, argv, i));
      if (v == 0) {
        std::fprintf(stderr, "--hosts must be positive\n");
        std::exit(2);
      }
      args.hosts = static_cast<std::size_t>(v);
    }
    if (std::strcmp(argv[i], "--duration-ms") == 0) {
      args.duration_ms = parse_u64_flag(
          "--duration-ms", flag_value("--duration-ms", argc, argv, i));
      if (args.duration_ms == 0) {
        std::fprintf(stderr, "--duration-ms must be positive\n");
        std::exit(2);
      }
    }
    if (std::strcmp(argv[i], "--out") == 0)
      args.out = flag_value("--out", argc, argv, i);
  }
  return args;
}

/// Write a verdict stream as text, one verdict per line with the score and
/// EWMA as raw bits: the byte-diffable determinism witness of the serving
/// benches. `what` prefixes the error message; a write failure exits 1.
inline void dump_verdicts(const std::vector<serve::ServeVerdict>& vs,
                          const char* path, const char* what) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[%s] cannot write %s\n", what, path);
    std::exit(1);
  }
  for (const serve::ServeVerdict& v : vs)
    std::fprintf(f, "%u %u %u %016llx %016llx %u %u\n", v.tick, v.host,
                 static_cast<unsigned>(v.outcome),
                 static_cast<unsigned long long>(
                     std::bit_cast<std::uint64_t>(v.score)),
                 static_cast<unsigned long long>(
                     std::bit_cast<std::uint64_t>(v.ewma)),
                 v.alarm ? 1U : 0U, v.stale ? 1U : 0U);
  std::fclose(f);
}

/// Machine-readable performance record of one grid-bench run, for tracking
/// the parallel layer's throughput across commits.
struct GridBenchReport {
  const char* bench = "";       ///< binary name, e.g. "fig3_accuracy"
  long long capture_ms = 0;     ///< corpus capture wall-clock
  long long grid_ms = 0;        ///< grid evaluation wall-clock
  std::size_t threads = 0;      ///< effective worker count
  std::size_t cells = 0;        ///< grid cells evaluated
};

/// Write `report` as JSON (default BENCH_grid.json in the working dir).
inline void write_grid_bench_json(const GridBenchReport& report,
                                  const char* path = "BENCH_grid.json") {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[%s] cannot write %s\n", report.bench, path);
    return;
  }
  const double grid_sec = static_cast<double>(report.grid_ms) / 1000.0;
  const double cells_per_sec =
      grid_sec > 0.0 ? static_cast<double>(report.cells) / grid_sec : 0.0;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"%s\",\n"
               "  \"threads\": %zu,\n"
               "  \"capture_ms\": %lld,\n"
               "  \"grid_ms\": %lld,\n"
               "  \"total_ms\": %lld,\n"
               "  \"cells\": %zu,\n"
               "  \"cells_per_sec\": %.3f\n"
               "}\n",
               report.bench, report.threads, report.capture_ms,
               report.grid_ms, report.capture_ms + report.grid_ms,
               report.cells, cells_per_sec);
  std::fclose(f);
  std::fprintf(stderr, "[%s] wrote %s (%zu cells, %zu threads, %.1f cells/s)\n",
               report.bench, path, report.cells, report.threads,
               cells_per_sec);
}

inline std::string pct(double v, int precision = 1) {
  return TextTable::num(100.0 * v, precision);
}

}  // namespace hmd::benchutil
