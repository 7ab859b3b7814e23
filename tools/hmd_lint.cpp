// hmd_lint — model-integrity static analysis across the experiment grid.
//
// Trains every detector of the paper's evaluation grid (8 classifiers ×
// {General, AdaBoost, Bagging} × {16, 8, 4, 2} HPCs) on the standard
// corpus, then runs the full analysis stack on each:
//
//   * ModelVerifier  — structural well-formedness of the model IR;
//   * HlsCodeChecker — synthesis-contract lint of the generated C,
//                      fixed-point range check, and a differential check
//                      of the generated decision function against
//                      predict_proba() thresholding on the test split
//                      (HLS-supported families only).
//
// Prints one pass/fail table and exits non-zero if any cell fails, so the
// tool slots directly into CI between training and synthesis/deployment.
//
// When the capture campaign runs with fault injection (--faults), the
// capture health itself is a lint subject: a quarantine or imputation rate
// above budget means the dataset under every downstream verdict is no
// longer trustworthy, so the tool fails before any model-level finding.
//
// Flags: --quick (reduced corpus), --seed N, --fraction-bits B,
//        --max-mismatch R (differential tolerance, default 0.02),
//        --faults P / --fault-seed N (capture fault profile, bench_util),
//        --checkpoint DIR / --resume (capture checkpointing, bench_util;
//        the capture budgets below are enforced on the merged
//        cross-session ledger of a resumed campaign),
//        --max-quarantine R (quarantined-app budget, default 0.05),
//        --max-impute R (imputed-cell budget, default 0.10),
//        --max-train-ms N (soft training-time budget per cell; cells over
//        budget emit a warning, never a failure — 0 disables, the default),
//        --max-predict-us N (soft per-sample inference budget per cell,
//        measured on the flat batched backend over the test split; same
//        advisory warning semantics as --max-train-ms),
//        --max-evasion-rate R (attack-resilience budget: every cell's test
//        split is attacked by the src/attack evasion search under a fixed
//        per-event budget; a cell whose evasion rate exceeds R fails, with
//        the same exit-1 semantics as the capture budgets — 0 disables,
//        the default),
//        --max-p99-us N / --max-shed-rate R (serving budgets: a fixed-seed
//        small fleet is driven through the src/serve pipeline under mild
//        overload; exceeding the end-to-end p99 latency or the shed-rate
//        budget is a hard failure — 0 disables each, the default),
//        --max-drift-lag N / --min-refresh-recovery R (drift budgets: a
//        fixed-seed fleet with a mid-run novel-family campaign runs
//        through the drift-aware serving pipeline twice, frozen and
//        adaptive; a detection lag over N ticks, a missing trigger/swap,
//        or a tail-accuracy recovery fraction below R is a hard failure —
//        0 disables each, the default),
//        --threads N (workers for capture + grid analysis; default
//        HMD_THREADS env, else hardware_concurrency — verdicts are
//        identical for any thread count),
//        --help (usage).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/hls_checker.h"
#include "analysis/model_verifier.h"
#include "attack/attack_eval.h"
#include "bench_util.h"
#include "core/experiment.h"
#include "hw/hls_codegen.h"
#include "serve/controller.h"
#include "serve/fleet.h"
#include "support/table.h"

namespace {

struct LintArgs {
  hmd::core::ExperimentConfig config;
  int fraction_bits = 8;
  double max_mismatch = 0.02;
  double max_quarantine = 0.05;
  double max_impute = 0.10;
  double max_train_ms = 0.0;    ///< 0 = no training-time budget
  double max_predict_us = 0.0;  ///< 0 = no per-sample inference budget
  double max_evasion = 0.0;     ///< 0 = no attack-resilience budget
  double max_p99_us = 0.0;      ///< 0 = no serving tail-latency budget
  double max_shed_rate = 0.0;   ///< 0 = no serving shed-rate budget
  double max_drift_lag = 0.0;   ///< 0 = no drift detection-lag budget
  double min_recovery = 0.0;    ///< 0 = no refresh-recovery budget
};

void print_help() {
  std::cout <<
      "hmd_lint — model-integrity static analysis across the experiment "
      "grid\n"
      "\n"
      "Trains the full 8 x {General, AdaBoost, Bagging} x {16,8,4,2} grid\n"
      "and lints every cell (structural verification, HLS contract +\n"
      "differential check, optional budgets). Exits 1 if any cell fails or\n"
      "any hard budget is exceeded.\n"
      "\n"
      "Shared flags (bench_util): --quick, --seed N, --threads N,\n"
      "  --faults none|light|heavy, --fault-seed N, --checkpoint DIR,\n"
      "  --resume, --backend scalar|flat\n"
      "\n"
      "Lint flags:\n"
      "  --fraction-bits B     fixed-point fraction bits (default 8)\n"
      "  --max-mismatch R      HLS differential tolerance (default 0.02)\n"
      "  --max-quarantine R    quarantined-app budget (default 0.05); over\n"
      "                        budget is a hard failure\n"
      "  --max-impute R        imputed-cell budget (default 0.10); hard\n"
      "  --max-train-ms N      per-cell training-time budget; advisory\n"
      "                        warning only (0 disables, the default)\n"
      "  --max-predict-us N    per-sample inference budget on the flat\n"
      "                        backend; advisory (0 disables, the default)\n"
      "  --max-evasion-rate R  attack-resilience budget: each cell's test\n"
      "                        split is attacked by the src/attack evasion\n"
      "                        search (abs 8 / rel 5% per-event budget,\n"
      "                        fixed seed); a cell whose evasion rate —\n"
      "                        detected malware rows flipped benign —\n"
      "                        exceeds R fails, with the same exit-1\n"
      "                        semantics as the capture budgets\n"
      "                        (0 disables, the default)\n"
      "  --max-p99-us N        serving tail-latency budget: a fixed-seed\n"
      "                        128-host fleet runs through the src/serve\n"
      "                        pipeline under mild overload (admission at\n"
      "                        90% of offered load); an end-to-end\n"
      "                        per-batch p99 above N microseconds is a\n"
      "                        hard failure\n"
      "                        (0 disables, the default)\n"
      "  --max-shed-rate R     serving shed budget, same scenario: the\n"
      "                        fraction of emitted samples rejected by\n"
      "                        token-bucket admission is deterministic for\n"
      "                        the fixed seed; exceeding R is a hard\n"
      "                        failure (0 disables, the default)\n"
      "  --max-drift-lag N     drift detection-lag budget: a fixed-seed\n"
      "                        fleet with a mid-run novel-family campaign\n"
      "                        runs through the drift-aware pipeline; the\n"
      "                        detector must fire within N ticks of the\n"
      "                        campaign onset, and the refresh must\n"
      "                        hot-swap before end of run — either miss is\n"
      "                        a hard failure (0 disables, the default)\n"
      "  --min-refresh-recovery R  refresh-quality budget, same scenario:\n"
      "                        the refreshed model's tail accuracy must\n"
      "                        capture at least fraction R of the frozen\n"
      "                        model's remaining headroom\n"
      "                        ((refreshed - frozen) / (1 - frozen));\n"
      "                        below R is a hard failure (0 disables,\n"
      "                        the default)\n"
      "  --help                this text\n";
}

LintArgs parse_args(int argc, char** argv) {
  LintArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_help();
      std::exit(0);
    }
  }
  args.config = hmd::benchutil::config_from_args(argc, argv);
  // Every value below goes through the strict parsers: a malformed value
  // or a value-taking flag given last exits 2, never silently becomes 0
  // (which disables most budgets).
  const struct {
    const char* flag;
    double* value;
  } budgets[] = {
      {"--max-mismatch", &args.max_mismatch},
      {"--max-quarantine", &args.max_quarantine},
      {"--max-impute", &args.max_impute},
      {"--max-train-ms", &args.max_train_ms},
      {"--max-predict-us", &args.max_predict_us},
      {"--max-evasion-rate", &args.max_evasion},
      {"--max-p99-us", &args.max_p99_us},
      {"--max-shed-rate", &args.max_shed_rate},
      {"--max-drift-lag", &args.max_drift_lag},
      {"--min-refresh-recovery", &args.min_recovery},
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fraction-bits") == 0) {
      const std::uint64_t bits = hmd::benchutil::parse_u64_flag(
          "--fraction-bits",
          hmd::benchutil::flag_value("--fraction-bits", argc, argv, i));
      if (bits > 62) {
        std::fprintf(stderr, "--fraction-bits must be at most 62\n");
        std::exit(2);
      }
      args.fraction_bits = static_cast<int>(bits);
    }
    for (const auto& b : budgets)
      if (std::strcmp(argv[i], b.flag) == 0)
        *b.value = hmd::benchutil::parse_double_flag(
            b.flag, hmd::benchutil::flag_value(b.flag, argc, argv, i));
  }
  return args;
}

/// Drift budgets: a fixed-seed fleet whose workload shifts mid-run (a
/// novel-family campaign plus benign scale drift) runs through the
/// drift-aware serving pipeline twice — frozen (detection only) and
/// adaptive (harvest + retrain + hot-swap). The detection lag, the swap,
/// and the recovery fraction are all deterministic-domain quantities, so
/// these are hard budgets like the capture ones. Returns violations.
std::size_t lint_drift(const LintArgs& args) {
  using namespace hmd;
  if (args.max_drift_lag <= 0.0 && args.min_recovery <= 0.0) return 0;

  serve::FleetConfig fc;
  fc.hosts = 96;
  fc.ticks = 220;
  fc.seed = args.config.corpus.seed;
  fc.train_variants = 2;
  fc.train_intervals = 10;
  fc.threads = args.config.threads;
  fc.drift.enabled = true;
  fc.drift.novel_templates = 4;
  fc.drift.campaign_fraction = 0.25;
  fc.drift.campaign_spread = 8;
  fc.drift.benign_shift = 0.2;
  fc.drift.benign_shift_ramp = 24;
  const std::uint32_t onset = fc.ticks / 2;
  const serve::FleetSetup fleet = serve::make_fleet(fc);

  serve::ServeConfig sc;
  sc.threads = args.config.threads;
  sc.record_verdicts = true;
  sc.drift.enabled = true;
  sc.drift.check_interval = 16;
  sc.drift.min_shards = 2;
  sc.refresh.harvest_ticks = 16;
  sc.refresh.refresh_lag_ticks = 48;

  serve::ServeConfig frozen_cfg = sc;
  frozen_cfg.refresh.enabled = false;
  const serve::ServeReport frozen = serve::run_fleet(fleet, frozen_cfg);
  const serve::ServeReport adaptive = serve::run_fleet(fleet, sc);
  const serve::ServeCounters& c = adaptive.counters;

  const bool triggered = c.drift_triggers > 0;
  const bool swapped = c.model_swaps > 0;
  const std::uint64_t lag =
      triggered && c.drift_trigger_tick >= onset
          ? c.drift_trigger_tick - onset + 1
          : 0;
  const std::uint32_t tail_from =
      swapped ? static_cast<std::uint32_t>(c.model_swap_tick) + 8 : fc.ticks;
  const double refreshed_tail = serve::verdict_window_accuracy(
      fleet, adaptive.verdicts, tail_from, fc.ticks);
  const double frozen_tail = serve::verdict_window_accuracy(
      fleet, frozen.verdicts, tail_from, fc.ticks);
  const double headroom = 1.0 - frozen_tail;
  const double recovery =
      headroom > 1e-9 ? (refreshed_tail - frozen_tail) / headroom : 1.0;

  std::fprintf(stderr,
               "[hmd_lint] drift: onset tick %u, trigger tick %llu "
               "(lag %llu), swap tick %llu, tail accuracy frozen %.4f vs "
               "refreshed %.4f (recovery %.2f)\n",
               onset, static_cast<unsigned long long>(c.drift_trigger_tick),
               static_cast<unsigned long long>(lag),
               static_cast<unsigned long long>(c.model_swap_tick),
               frozen_tail, refreshed_tail, recovery);

  std::size_t violations = 0;
  if (!triggered || !swapped) {
    std::fprintf(stderr,
                 "[hmd_lint] drift budget exceeded: %s never happened\n",
                 !triggered ? "the drift trigger" : "the model hot-swap");
    return violations + 1;  // lag/recovery are meaningless without them
  }
  if (args.max_drift_lag > 0.0 &&
      static_cast<double>(lag) > args.max_drift_lag) {
    std::fprintf(stderr,
                 "[hmd_lint] drift budget exceeded: detection lag %llu "
                 "ticks > %.0f\n",
                 static_cast<unsigned long long>(lag), args.max_drift_lag);
    ++violations;
  }
  if (args.min_recovery > 0.0 && recovery < args.min_recovery) {
    std::fprintf(stderr,
                 "[hmd_lint] drift budget exceeded: refresh recovery %.2f "
                 "< %.2f\n",
                 recovery, args.min_recovery);
    ++violations;
  }
  return violations;
}

/// Serving budgets: drive a small fixed-seed fleet through the src/serve
/// pipeline under mild overload and check the tail latency and shed rate.
/// The shed rate is deterministic (virtual-tick admission); the p99 is
/// measured, like the --max-train-ms/--max-predict-us budgets — but over
/// budget here is a hard failure: a serving layer that sheds or lags past
/// its contract is as undeployable as an evadable model. Returns the
/// number of violations.
std::size_t lint_serving(const LintArgs& args) {
  using namespace hmd;
  if (args.max_p99_us <= 0.0 && args.max_shed_rate <= 0.0) return 0;

  serve::FleetConfig fc;
  fc.hosts = 128;
  fc.ticks = 80;
  fc.seed = args.config.corpus.seed;
  fc.train_variants = 2;
  fc.train_intervals = 10;
  fc.threads = args.config.threads;
  const serve::FleetSetup fleet = serve::make_fleet(fc);

  serve::ServeConfig sc;
  sc.threads = args.config.threads;
  sc.record_verdicts = false;
  // Mild overload: steady-state admission at 90% of the offered load
  // (bursting to one full tick) — the scenario the budgets police.
  sc.admit_per_tick = (fc.hosts * 9) / 10;
  sc.admit_burst = fc.hosts;
  const serve::ServeReport r = serve::run_fleet(fleet, sc);

  const double p99 = r.timing.e2e.p99();
  const double shed_rate =
      r.counters.emitted > 0
          ? static_cast<double>(r.counters.shed) /
                static_cast<double>(r.counters.emitted)
          : 0.0;
  std::fprintf(stderr,
               "[hmd_lint] serving: %llu hosts x %llu ticks, e2e p99 %.1f "
               "us, shed %.2f%% (%llu/%llu emitted)\n",
               static_cast<unsigned long long>(r.counters.hosts),
               static_cast<unsigned long long>(r.counters.ticks), p99,
               100.0 * shed_rate,
               static_cast<unsigned long long>(r.counters.shed),
               static_cast<unsigned long long>(r.counters.emitted));

  std::size_t violations = 0;
  if (args.max_p99_us > 0.0 && p99 > args.max_p99_us) {
    std::fprintf(stderr,
                 "[hmd_lint] serving budget exceeded: e2e p99 %.1f us > "
                 "%.1f us\n",
                 p99, args.max_p99_us);
    ++violations;
  }
  if (args.max_shed_rate > 0.0 && shed_rate > args.max_shed_rate) {
    std::fprintf(stderr,
                 "[hmd_lint] serving budget exceeded: shed rate %.2f%% > "
                 "%.2f%%\n",
                 100.0 * shed_rate, 100.0 * args.max_shed_rate);
    ++violations;
  }
  return violations;
}

/// Capture-health lint: the dataset every model verdict rests on must be
/// within the fault budgets. Returns the number of budget violations
/// (each printed to stderr).
std::size_t lint_capture(const hmd::hpc::CaptureReport& report,
                         const LintArgs& args) {
  std::size_t violations = 0;
  const auto over = [&](const char* what, double value, double budget) {
    std::fprintf(stderr,
                 "[hmd_lint] capture budget exceeded: %s %.2f%% > %.2f%%\n",
                 what, 100.0 * value, 100.0 * budget);
    ++violations;
  };
  if (report.quarantine_fraction() > args.max_quarantine)
    over("quarantined apps", report.quarantine_fraction(),
         args.max_quarantine);
  if (report.imputed_fraction() > args.max_impute)
    over("imputed cells", report.imputed_fraction(), args.max_impute);
  return violations;
}

struct CellVerdict {
  bool pass = true;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::string detail;  ///< full findings text for failing cells
};

CellVerdict lint_cell(const hmd::core::ExperimentContext& ctx,
                      const hmd::core::GridCell& cell,
                      const LintArgs& args) {
  using namespace hmd;

  const ml::ClassifierKind kind = cell.classifier;
  const ml::EnsembleKind ensemble = cell.ensemble;
  const std::size_t hpcs = cell.hpcs;

  // Shared, cached feature projection — 24 cells per HPC budget reuse it.
  const ml::Split& projected = ctx.projected_split(hpcs);
  const ml::Dataset& test = projected.test;

  auto detector = ml::make_detector(kind, ensemble, ctx.config.model_seed);
  const double t0 = benchutil::now_ms();
  detector->train(projected.train);
  const double train_ms = benchutil::now_ms() - t0;

  CellVerdict verdict;
  std::ostringstream detail;

  // Training-time budget is advisory only: a slow cell is a performance
  // regression to investigate, not a broken model.
  if (args.max_train_ms > 0.0 && train_ms > args.max_train_ms) {
    ++verdict.warnings;
    std::fprintf(stderr,
                 "[hmd_lint] warning: %s %s @ %zu HPCs trained in %.0f ms "
                 "(budget %.0f ms)\n",
                 std::string(ml::ensemble_kind_name(ensemble)).c_str(),
                 std::string(ml::classifier_kind_name(kind)).c_str(), hpcs,
                 train_ms, args.max_train_ms);
  }

  // Inference budget, same advisory semantics, sourced from the flat
  // batched backend — the engine deployment actually runs on.
  if (args.max_predict_us > 0.0 && test.num_rows() > 0) {
    const auto backend =
        ml::make_backend(*detector, ml::InferBackendKind::kFlat);
    const double p0 = benchutil::now_ms();
    const auto scores = backend->predict_proba_batch(test);
    const double predict_us = 1000.0 * (benchutil::now_ms() - p0) /
                              static_cast<double>(scores.size());
    if (predict_us > args.max_predict_us) {
      ++verdict.warnings;
      std::fprintf(stderr,
                   "[hmd_lint] warning: %s %s @ %zu HPCs predicts at %.3f "
                   "us/sample on the %s backend (budget %.3f us)\n",
                   std::string(ml::ensemble_kind_name(ensemble)).c_str(),
                   std::string(ml::classifier_kind_name(kind)).c_str(), hpcs,
                   predict_us, std::string(backend->name()).c_str(),
                   args.max_predict_us);
    }
  }

  // Attack-resilience budget: a hard failure, like the capture budgets —
  // a detector whose detected malware is trivially evadable under a small
  // perturbation budget is not deployable, whatever its clean accuracy.
  if (args.max_evasion > 0.0 && test.num_rows() > 0) {
    attack::PerturbationBudget budget;
    budget.max_abs_delta = 8.0;
    budget.max_rel_delta = 0.05;
    const attack::DatasetAttackResult attacked = attack::attack_dataset(
        *detector, test, budget, attack::EvasionSearchConfig{},
        /*seed=*/0xADE5A17ULL, /*threads=*/1);
    if (attacked.evasion_rate() > args.max_evasion) {
      verdict.pass = false;
      ++verdict.errors;
      detail << "  [attack-resilience] evasion rate "
             << hmd::TextTable::num(100.0 * attacked.evasion_rate(), 2)
             << "% (" << attacked.evaded << "/" << attacked.detected_clean
             << " detected malware rows flipped under "
             << attack::describe_budget(budget) << ") > budget "
             << hmd::TextTable::num(100.0 * args.max_evasion, 2) << "%\n";
    }
  }

  const auto absorb = [&](const analysis::VerifyReport& report,
                          const char* stage) {
    verdict.errors += report.error_count();
    verdict.warnings += report.warning_count();
    if (!report.ok()) {
      verdict.pass = false;
      detail << "  [" << stage << "]\n" << report.to_string();
    }
  };

  // One structural view of the trained detector feeds every analyzer.
  const ml::ModelIr ir = ml::extract_ir(*detector);
  absorb(analysis::verify_ir(ir), "model-verifier");

  if (hw::hls_supported(ir)) {
    absorb(analysis::check_fixed_point_range(ir, args.fraction_bits),
           "fixed-point-range");

    hw::HlsOptions hls_options;
    hls_options.fraction_bits = args.fraction_bits;
    std::ostringstream code;
    hw::generate_hls_c(code, ir, hpcs, hls_options);
    analysis::HlsLintOptions lint_options;
    lint_options.fraction_bits = args.fraction_bits;
    absorb(analysis::lint_hls_code(code.str(), lint_options), "hls-lint");

    analysis::DifferentialOptions diff_options;
    diff_options.fraction_bits = args.fraction_bits;
    diff_options.max_mismatch_rate = args.max_mismatch;
    const auto diff =
        analysis::differential_check(*detector, ir, test, diff_options);
    if (!diff.ok) {
      verdict.pass = false;
      ++verdict.errors;
      detail << "  [hls-differential] " << diff.mismatches << "/"
             << diff.probes << " probe decisions diverge ("
             << hmd::TextTable::num(100.0 * diff.mismatch_rate(), 2)
             << "% > "
             << hmd::TextTable::num(100.0 * args.max_mismatch, 2)
             << "%)\n";
    }
  }

  verdict.detail = detail.str();
  return verdict;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmd;

  const LintArgs args = parse_args(argc, argv);
  const auto ctx = benchutil::prepare(args.config, "hmd_lint");

  const std::size_t capture_violations =
      lint_capture(ctx.capture.report, args);
  const std::size_t serving_violations = lint_serving(args);
  const std::size_t drift_violations = lint_drift(args);

  // The full 96-model grid, analysed concurrently (one task per cell);
  // verdicts come back in grid order, so the report is deterministic.
  const auto cells = core::full_grid();
  const auto verdicts =
      core::map_grid(ctx, cells, args.config.threads,
                     [&](const core::GridCell& cell) {
                       return lint_cell(ctx, cell, args);
                     });

  TextTable table("hmd_lint — model integrity across the experiment grid");
  table.set_header({"Detector", "16HPC", "8HPC", "4HPC", "2HPC"});

  std::size_t failed_cells = 0;
  const std::size_t total_cells = cells.size();
  // full_grid() is classifier-major, then ensemble, then {16,8,4,2}: four
  // consecutive verdicts form one table row.
  for (std::size_t i = 0; i < verdicts.size(); i += 4) {
    std::vector<std::string> row;
    row.push_back(
        std::string(ml::ensemble_kind_name(cells[i].ensemble)) + " " +
        std::string(ml::classifier_kind_name(cells[i].classifier)));
    for (std::size_t c = 0; c < 4; ++c) {
      const CellVerdict& verdict = verdicts[i + c];
      std::string cell = verdict.pass ? "pass" : "FAIL";
      if (verdict.warnings > 0)
        cell += " (" + std::to_string(verdict.warnings) + "w)";
      if (!verdict.pass) {
        ++failed_cells;
        cell += " (" + std::to_string(verdict.errors) + "e)";
        std::cerr << "[hmd_lint] " << row.front() << " @ "
                  << cells[i + c].hpcs << " HPCs:\n"
                  << verdict.detail;
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  const hpc::CaptureReport& report = ctx.capture.report;
  // Budget accounting over a resumed campaign: the quarantine/imputation
  // fractions below are computed on the *merged* ledger (apps reused from
  // checkpoints + apps executed this session), never on this session's
  // slice alone — a resumed campaign must clear the same bar as an
  // uninterrupted one, and prepare_experiment already verified the merged
  // ledger sums to total_runs.
  if (ctx.resume_stats.checkpointing) {
    std::cout << "capture checkpoint: " << ctx.resume_stats.loaded_apps
              << "/" << report.apps.size() << " apps reused ("
              << ctx.resume_stats.loaded_runs
              << " container runs from previous sessions), "
              << ctx.resume_stats.executed_apps << " executed ("
              << ctx.resume_stats.session_runs
              << " runs this session); budgets apply to the merged ledger\n";
  }
  std::cout << "capture health: "
            << report.quarantined_apps() << "/" << report.apps.size()
            << " apps quarantined ("
            << TextTable::num(100.0 * report.quarantine_fraction(), 2)
            << "% vs " << TextTable::num(100.0 * args.max_quarantine, 2)
            << "% budget), " << report.total_imputed_cells() << "/"
            << report.total_cells() << " cells imputed ("
            << TextTable::num(100.0 * report.imputed_fraction(), 2)
            << "% vs " << TextTable::num(100.0 * args.max_impute, 2)
            << "% budget)"
            << (capture_violations == 0 ? "" : " — OVER BUDGET") << "\n";
  const bool ok = failed_cells == 0 && capture_violations == 0 &&
                  serving_violations == 0 && drift_violations == 0;
  std::cout << (ok ? "OK" : "FAILED") << ": "
            << total_cells - failed_cells << "/" << total_cells
            << " grid cells clean, " << capture_violations
            << " capture budget violations, " << serving_violations
            << " serving budget violations, " << drift_violations
            << " drift budget violations\n";
  return ok ? 0 : 1;
}
