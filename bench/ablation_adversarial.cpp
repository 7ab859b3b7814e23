// Ablation (beyond the paper's tables): detector robustness under
// *adversarial* counter perturbation — the worst-case companion of
// ablation_faults' random collector noise.
//
// Kuruvila et al. show that small bounded perturbations of the HPC stream
// collapse single-model HMD accuracy, and that adversarial retraining
// restores most of it; Stamp et al. ask whether ensemble diversity itself
// buys resistance. This bench sweeps a per-event perturbation budget
// through the attack layer (src/attack) and evaluates General vs AdaBoost
// vs Bagging J48 detectors at every HPC budget, reporting for each cell:
//
//   clean            baseline model on the honest test split
//   attacked         baseline on evasion-perturbed malware rows
//   retrain transfer adversarially retrained model on the *baseline's*
//                    perturbations (the attacker has not adapted)
//   retrain adaptive retrained model under a fresh evasion search against
//                    itself (the attacker has adapted)
//   margin vote      baseline + perturbation-aware vote: low-agreement
//                    verdicts escalate to malware (Verdict::suspect online)
//
// The evasion search only ever accepts score decreases, so attacked
// accuracy <= clean accuracy holds exactly per cell (ci.sh asserts this on
// the JSON). All results are bit-identical across runs and --threads
// values at a fixed --seed: per-row searches stream their randomness from
// the row index, and cells evaluate as independent pure functions. So the
// whole sweep is BENCH_adversarial.json's "deterministic" block; only the
// thread count is "measured".
//
// Flags (beyond the shared --quick/--seed/--threads/--backend set):
//   --out P    JSON output path (default BENCH_adversarial.json)
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "attack/defense.h"
#include "bench_util.h"
#include "support/table.h"

namespace {

using namespace hmd;

/// Everything the bench reports about one (budget, cell) evaluation.
struct BenchCell {
  core::GridCell cell;
  ml::DetectorMetrics clean;
  ml::DetectorMetrics attacked;
  double evasion_rate = 0.0;
  ml::DetectorMetrics retrain_clean;
  ml::DetectorMetrics retrain_transfer;
  ml::DetectorMetrics retrain_adaptive;
  double retrain_adaptive_evasion = 0.0;
  ml::DetectorMetrics margin_defended;
  double margin_suspect_fraction = 0.0;
};

BenchCell evaluate_cell(const core::ExperimentContext& ctx,
                        const core::GridCell& cell,
                        const attack::PerturbationBudget& budget,
                        const attack::EvasionSearchConfig& search,
                        std::uint64_t attack_seed) {
  const ml::Split& projected = ctx.projected_split(cell.hpcs);
  const auto baseline = ml::make_detector(cell.classifier, cell.ensemble,
                                          ctx.config.model_seed);
  baseline->train(projected.train);

  // White-box attack on the test split (inner threads=1: the grid map over
  // cells is the parallel axis).
  const attack::DatasetAttackResult test_attack = attack::attack_dataset(
      *baseline, projected.test, budget, search, attack_seed, 1);

  BenchCell out;
  out.cell = cell;
  out.clean = attack::metrics_of(projected.test, test_attack.clean_scores);
  out.attacked =
      attack::metrics_of(projected.test, test_attack.attacked_scores);
  out.evasion_rate = test_attack.evasion_rate();

  // Defence 1: adversarial retraining — perturbations crafted against the
  // baseline on the TRAINING split augment it; the retrained model is
  // scored on the baseline's test perturbations (transfer) and under a
  // fresh evasion search against itself (adaptive).
  const auto retrained = attack::adversarial_retrain(
      *baseline, projected.train, cell.classifier, cell.ensemble,
      ctx.config.model_seed, budget, search,
      attack_seed ^ 0x7261696eULL, 1);
  out.retrain_clean = attack::metrics_of(
      projected.test,
      ml::make_active_backend(*retrained)->predict_proba_batch(
          projected.test));
  out.retrain_transfer = attack::metrics_of(
      projected.test,
      attack::transfer_scores(*retrained, projected.test, test_attack));
  const attack::DatasetAttackResult adaptive = attack::attack_dataset(
      *retrained, projected.test, budget, search, attack_seed, 1);
  out.retrain_adaptive =
      attack::metrics_of(projected.test, adaptive.attacked_scores);
  out.retrain_adaptive_evasion = adaptive.evasion_rate();

  // Defence 2: perturbation-aware vote on the unmodified baseline.
  std::size_t suspects = 0;
  const std::vector<double> defended = attack::margin_defended_scores(
      *baseline, projected.test, test_attack, attack::MarginVoteConfig{},
      &suspects);
  out.margin_defended = attack::metrics_of(projected.test, defended);
  out.margin_suspect_fraction =
      projected.test.num_rows() == 0
          ? 0.0
          : static_cast<double>(suspects) /
                static_cast<double>(projected.test.num_rows());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = benchutil::config_from_args(argc, argv);
  const char* out_path = "BENCH_adversarial.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0)
      out_path = benchutil::flag_value("--out", argc, argv, i);
  }

  // The sweep: relative per-event budgets from barely-there to generous,
  // each with a small absolute floor so near-zero counters can move at all
  // (malware can always *add* a few events; it cannot scale zero).
  constexpr double kRelBudgets[] = {0.02, 0.05, 0.10};
  constexpr double kAbsFloor = 8.0;
  const attack::EvasionSearchConfig search{};

  const ml::EnsembleKind kEnsembles[] = {ml::EnsembleKind::kGeneral,
                                         ml::EnsembleKind::kAdaBoost,
                                         ml::EnsembleKind::kBagging};
  constexpr std::size_t kHpcs[] = {16, 8, 4, 2};
  std::vector<core::GridCell> cells;
  for (ml::EnsembleKind ens : kEnsembles)
    for (std::size_t hpcs : kHpcs)
      cells.push_back({ml::ClassifierKind::kJ48, ens, hpcs});

  const auto ctx = benchutil::prepare(cfg, "ablation_adversarial");
  const std::uint64_t attack_seed = mix64(cfg.corpus.seed ^ 0xADE5A17ULL);

  TextTable table(
      "Ablation — accuracy under adversarial counter perturbation "
      "(J48 base; accuracies in %, evasion = fraction of detected malware "
      "rows flipped)");
  table.set_header({"Budget", "Ensemble", "HPCs", "Clean", "Attacked",
                    "Evasion", "Retrain xfer", "Retrain adapt",
                    "Margin vote"});

  std::vector<std::vector<BenchCell>> sweep;
  for (double rel : kRelBudgets) {
    attack::PerturbationBudget budget;
    budget.max_rel_delta = rel;
    budget.max_abs_delta = kAbsFloor;
    std::fprintf(stderr, "[ablation_adversarial] budget %s...\n",
                 attack::describe_budget(budget).c_str());
    sweep.push_back(core::map_grid(
        ctx, cells, cfg.threads, [&](const core::GridCell& cell) {
          return evaluate_cell(ctx, cell, budget, search, attack_seed);
        }));
    for (const BenchCell& c : sweep.back()) {
      table.add_row({benchutil::pct(rel, 0) + "%",
                     std::string(ml::ensemble_kind_name(c.cell.ensemble)),
                     std::to_string(c.cell.hpcs),
                     benchutil::pct(c.clean.accuracy),
                     benchutil::pct(c.attacked.accuracy),
                     benchutil::pct(c.evasion_rate),
                     benchutil::pct(c.retrain_transfer.accuracy),
                     benchutil::pct(c.retrain_adaptive.accuracy),
                     benchutil::pct(c.margin_defended.accuracy)});
    }
  }

  table.print(std::cout);
  std::cout
      << "\nReading: Attacked <= Clean holds exactly (the evasion search "
         "only accepts score decreases). Retrain xfer is the hardened "
         "headline — the attacker still aims at the old model; Retrain "
         "adapt re-runs the search against the hardened model; Margin vote "
         "escalates low-agreement verdicts to malware on the unmodified "
         "baseline, so it can only help where members disagree "
         "(ensembles).\n";

  support::JsonWriter w = benchutil::bench_report("ablation_adversarial");
  w.object("deterministic")
      .num("seed", cfg.corpus.seed)
      .str("classifier", "J48")
      .num("abs_floor", kAbsFloor, 6)
      .array("budgets");
  for (std::size_t b = 0; b < sweep.size(); ++b) {
    w.object().num("max_rel_delta", kRelBudgets[b], 6).array("cells");
    for (const BenchCell& cell : sweep[b])
      w.inline_object()
          .str("ensemble", ml::ensemble_kind_name(cell.cell.ensemble))
          .num("hpcs", cell.cell.hpcs)
          .num("clean_accuracy", cell.clean.accuracy, 6)
          .num("attacked_accuracy", cell.attacked.accuracy, 6)
          .num("evasion_rate", cell.evasion_rate, 6)
          .num("retrain_clean_accuracy", cell.retrain_clean.accuracy, 6)
          .num("retrain_transfer_accuracy", cell.retrain_transfer.accuracy, 6)
          .num("retrain_adaptive_accuracy", cell.retrain_adaptive.accuracy, 6)
          .num("retrain_adaptive_evasion", cell.retrain_adaptive_evasion, 6)
          .num("margin_defended_accuracy", cell.margin_defended.accuracy, 6)
          .num("margin_suspect_fraction", cell.margin_suspect_fraction, 6)
          .end();
    w.end().end();
  }
  w.end().end().object("measured")
      .num("threads", support::resolve_threads(cfg.threads))
      .end();
  w.save(out_path, "ablation_adversarial");
  std::fprintf(stderr, "[ablation_adversarial] wrote %s\n", out_path);
  return 0;
}
