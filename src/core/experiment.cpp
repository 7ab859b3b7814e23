#include "core/experiment.h"

#include "support/check.h"

namespace hmd::core {

std::vector<std::size_t> ExperimentContext::top_features(std::size_t k) const {
  return ml::top_k_features(ranking, k);
}

std::vector<std::string> ExperimentContext::top_feature_names(
    std::size_t k) const {
  std::vector<std::string> names;
  names.reserve(k);
  for (std::size_t f : top_features(k))
    names.push_back(full.feature_name(f));
  return names;
}

const ml::Split& ExperimentContext::projected_split(std::size_t hpcs) const {
  HMD_REQUIRE(hpcs >= 1);
  return projections->get(hpcs, [&] {
    const auto features = top_features(hpcs);
    ml::Split projected{split.train.select_features(features),
                        split.test.select_features(features)};
    // Build the per-feature sort cache while the projection is warmed, so
    // every grid cell sharing this projection trains against ready-made
    // presorted orders instead of racing to build them lazily.
    projected.train.warm_presort_cache();
    return projected;
  });
}

ml::Dataset to_dataset(const hpc::Capture& capture) {
  ml::Dataset data(capture.feature_names);
  data.reserve(capture.num_rows());
  for (std::size_t i = 0; i < capture.num_rows(); ++i)
    data.add_row(capture.rows[i], capture.labels[i], 1.0,
                 capture.row_app[i]);
  return data;
}

ExperimentContext prepare_experiment(const ExperimentConfig& config) {
  ExperimentContext ctx;
  ctx.config = config;

  const auto corpus = sim::build_corpus(config.corpus);
  hpc::CaptureConfig capture_cfg = config.capture;
  if (capture_cfg.threads == 0) capture_cfg.threads = config.threads;
  ctx.capture = hpc::capture_all_events(corpus, capture_cfg,
                                        &ctx.resume_stats);

  // Protocol-cost accounting must stay honest under retries: the headline
  // run counter and the per-app fault ledger are maintained separately and
  // can only diverge through a bug, so divergence is fatal here rather
  // than a silently wrong cost column in an ablation.
  std::uint64_t ledger_runs = 0;
  for (const auto& app : ctx.capture.report.apps) ledger_runs += app.attempts;
  HMD_INVARIANT(ctx.capture.total_runs == ledger_runs);

  // Merged-ledger invariant under checkpointing: every app is either reused
  // from a prior session or executed in this one, and total_runs — the
  // honest protocol cost across sessions — must split exactly into reused
  // and fresh attempts. A resumed campaign that dropped or double-counted
  // work would corrupt every downstream cost ablation, so it is fatal.
  if (ctx.resume_stats.checkpointing) {
    HMD_INVARIANT(ctx.resume_stats.loaded_apps +
                      ctx.resume_stats.executed_apps ==
                  ctx.capture.report.apps.size());
    HMD_INVARIANT(ctx.resume_stats.loaded_runs +
                      ctx.resume_stats.session_runs ==
                  ctx.capture.total_runs);
  }

  ctx.full = to_dataset(ctx.capture);

  Rng split_rng(config.split_seed);
  ctx.split =
      ml::stratified_group_split(ctx.full, config.train_fraction, split_rng);

  // Feature reduction is fit on the training applications only — the test
  // applications are "unknown" end to end. The raw correlation ranking is
  // de-duplicated so near-identical counters don't crowd out distinct ones.
  ctx.ranking = ml::prune_redundant(ctx.split.train,
                                    ml::correlation_ranking(ctx.split.train));
  return ctx;
}

namespace {

/// Train the cell's detector on the context's (cached) training projection
/// for the top `hpcs` events; `test_out` points at the cached test side.
std::unique_ptr<ml::Classifier> train_cell(const ExperimentContext& ctx,
                                           ml::ClassifierKind kind,
                                           ml::EnsembleKind ensemble,
                                           std::size_t hpcs,
                                           const ml::Dataset** test_out) {
  HMD_REQUIRE(hpcs >= 1);
  const ml::Split& projected = ctx.projected_split(hpcs);
  *test_out = &projected.test;

  auto detector = ml::make_detector(kind, ensemble, ctx.config.model_seed);
  detector->train(projected.train);
  return detector;
}

}  // namespace

CellEvaluation run_cell_full(const ExperimentContext& ctx,
                             ml::ClassifierKind kind,
                             ml::EnsembleKind ensemble, std::size_t hpcs) {
  const ml::Dataset* test = nullptr;
  const auto detector = train_cell(ctx, kind, ensemble, hpcs, &test);

  CellEvaluation out;
  out.result.classifier = kind;
  out.result.ensemble = ensemble;
  out.result.hpcs = hpcs;
  out.result.complexity = ml::complexity(ml::extract_ir(*detector));

  out.scores.scores = ml::score_dataset(*detector, *test);
  std::vector<double> weights;
  out.scores.labels.reserve(test->num_rows());
  weights.reserve(test->num_rows());
  for (std::size_t i = 0; i < test->num_rows(); ++i) {
    out.scores.labels.push_back(test->label(i));
    weights.push_back(test->weight(i));
  }
  out.result.metrics =
      ml::detector_metrics(out.scores.scores, out.scores.labels, weights);
  return out;
}

CellResult run_cell(const ExperimentContext& ctx, ml::ClassifierKind kind,
                    ml::EnsembleKind ensemble, std::size_t hpcs) {
  return run_cell_full(ctx, kind, ensemble, hpcs).result;
}

CellScores run_cell_scores(const ExperimentContext& ctx,
                           ml::ClassifierKind kind, ml::EnsembleKind ensemble,
                           std::size_t hpcs) {
  return std::move(run_cell_full(ctx, kind, ensemble, hpcs).scores);
}

std::vector<GridCell> full_grid() {
  constexpr std::size_t kHpcGrid[] = {16, 8, 4, 2};
  std::vector<GridCell> cells;
  cells.reserve(ml::all_classifier_kinds().size() *
                ml::all_ensemble_kinds().size() * std::size(kHpcGrid));
  for (ml::ClassifierKind kind : ml::all_classifier_kinds())
    for (ml::EnsembleKind ensemble : ml::all_ensemble_kinds())
      for (std::size_t hpcs : kHpcGrid)
        cells.push_back({kind, ensemble, hpcs});
  return cells;
}

std::vector<CellResult> run_grid(const ExperimentContext& ctx,
                                 std::span<const GridCell> cells,
                                 std::size_t threads) {
  return map_grid(ctx, cells, threads, [&](const GridCell& cell) {
    return run_cell(ctx, cell.classifier, cell.ensemble, cell.hpcs);
  });
}

std::vector<CellEvaluation> run_grid_full(const ExperimentContext& ctx,
                                          std::span<const GridCell> cells,
                                          std::size_t threads) {
  return map_grid(ctx, cells, threads, [&](const GridCell& cell) {
    return run_cell_full(ctx, cell.classifier, cell.ensemble, cell.hpcs);
  });
}

}  // namespace hmd::core
