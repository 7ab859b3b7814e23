// Inference micro-benchmark over the full classifier × ensemble grid,
// A/B-comparing the flat batched inference engine against the scalar
// reference walk (ml/infer.h) in one process.
//
// For every cell the benchmark trains one detector, scores a stream of
// distinct intervals through both backends, verifies the score vectors are
// bit-identical element by element, and records the per-sample latency of
// each backend.
//
// The timed batch is NOT the test split looped over and over: re-scoring
// the same couple of hundred rows lets the branch predictor memorise every
// data-dependent branch in the scalar walk, which flatters it absurdly —
// run-time detection sees each interval exactly once. Instead the batch is
// tens of thousands of unique rows, each a test-split row under a small
// deterministic multiplicative jitter (so values stay in-distribution),
// scored in one pass per timing rep. Both backends score the identical
// batch, so the bit-identity check is unaffected.
//
// Results land in BENCH_infer.json; the headline number is
// `tree_ensemble_speedup`, the aggregate scalar/flat latency ratio over
// the flattenable tree/rule ensembles ({J48, REPTree, JRip} ×
// {AdaBoost, Bagging}). Any score mismatch anywhere exits 1.
//
// Flags (beyond the shared --quick/--seed/--threads/--backend set):
//   --reps N   timing repetitions per backend, best-of (default 5; 2 in
//              --quick)
//   --hpcs N   feature-projection width to score at (default 8)
//   --out P    JSON output path (default BENCH_infer.json)
//   --only L   comma-separated classifier names (e.g. J48,JRip): bench only
//              those rows of the grid. The aggregate speedup then covers
//              only the tree/rule-ensemble cells actually present.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hmd.h"
#include "support/rng.h"

namespace {

using namespace hmd;

struct Cell {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  std::string backend;      ///< engine behind the kFlat request: flat|generic
  double scalar_us = 0.0;   ///< scalar per-sample latency
  double flat_us = 0.0;     ///< flat (or generic) per-sample latency
  bool score_match = true;  ///< element-wise bit-identity of the two runs
};

/// Best-of-`reps` per-sample latency of scoring the `rows`-row batch `x`
/// (one full pass per rep) through `backend`; the scores stay in `scores`.
double time_backend(const ml::InferenceBackend& backend,
                    std::span<const double> x, std::size_t num_features,
                    std::size_t rows, std::size_t reps,
                    std::vector<double>& scores) {
  scores.assign(rows, 0.0);
  double best = 0.0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double t0 = benchutil::now_ms();
    backend.predict_proba_batch(x, num_features, scores);
    const double ms = benchutil::now_ms() - t0;
    if (rep == 0 || ms < best) best = ms;
  }
  return rows > 0 ? 1000.0 * best / static_cast<double>(rows) : 0.0;
}

/// `rows` unique in-distribution intervals: test-split rows cycled in a
/// mixed order under ±5% multiplicative jitter. Unique rows keep the
/// scalar walk's branch behaviour honest (nothing to memorise), and the
/// jitter never moves a value far enough to leave the trained split range.
std::vector<double> make_stream(const ml::Dataset& test, std::size_t rows,
                                std::uint64_t seed) {
  const std::size_t nf = test.num_features();
  Rng rng(mix64(seed ^ 0x1f2e3d4c5b6a7988ULL));
  std::vector<double> x(rows * nf);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto base = test.row(rng.below(test.num_rows()));
    for (std::size_t j = 0; j < nf; ++j)
      x[i * nf + j] = base[j] * rng.uniform(0.95, 1.05);
  }
  return x;
}

bool tree_ensemble_cell(const Cell& c) {
  const bool tree = c.kind == ml::ClassifierKind::kJ48 ||
                    c.kind == ml::ClassifierKind::kRepTree ||
                    c.kind == ml::ClassifierKind::kJRip;
  const bool ens = c.ensemble == ml::EnsembleKind::kAdaBoost ||
                   c.ensemble == ml::EnsembleKind::kBagging;
  return tree && ens;
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg = benchutil::config_from_args(argc, argv);
  std::size_t reps = 0;
  std::size_t hpcs = 8;
  const char* out_path = "BENCH_infer.json";
  std::string only;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--reps") == 0)
      reps = benchutil::parse_u64_flag(
          "--reps", benchutil::flag_value("--reps", argc, argv, i));
    if (std::strcmp(argv[i], "--hpcs") == 0)
      hpcs = benchutil::parse_u64_flag(
          "--hpcs", benchutil::flag_value("--hpcs", argc, argv, i));
    if (std::strcmp(argv[i], "--out") == 0)
      out_path = benchutil::flag_value("--out", argc, argv, i);
    if (std::strcmp(argv[i], "--only") == 0)
      only = benchutil::flag_value("--only", argc, argv, i);
  }
  const auto selected = [&only](ml::ClassifierKind kind) {
    if (only.empty()) return true;
    const std::string name(ml::classifier_kind_name(kind));
    std::size_t pos = 0;
    while (pos <= only.size()) {
      std::size_t end = only.find(',', pos);
      if (end == std::string::npos) end = only.size();
      if (only.compare(pos, end - pos, name) == 0) return true;
      pos = end + 1;
    }
    return false;
  };
  if (reps == 0) reps = quick ? 2 : 5;
  if (hpcs == 0) hpcs = 8;

  long long capture_ms = 0;
  const core::ExperimentContext ctx =
      benchutil::prepare(cfg, "micro_infer", &capture_ms);
  const ml::Split& split = ctx.projected_split(hpcs);
  const ml::Dataset& test = split.test;

  // Enough unique rows per timed pass to out-resolve the clock and defeat
  // branch-history memorisation, even on the reduced --quick corpus.
  const std::size_t stream_rows = quick ? 20000 : 200000;
  const std::vector<double> stream =
      make_stream(test, stream_rows, ctx.config.corpus.seed);

  std::vector<Cell> cells;
  bool all_match = true;
  std::vector<double> scalar_scores;
  std::vector<double> flat_scores;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    if (!selected(kind)) continue;
    for (ml::EnsembleKind ensemble : ml::all_ensemble_kinds()) {
      Cell cell{kind, ensemble, ""};
      auto detector = ml::make_detector(kind, ensemble, ctx.config.model_seed);
      detector->train(split.train);

      const auto scalar =
          ml::make_backend(*detector, ml::InferBackendKind::kScalar);
      const auto flat =
          ml::make_backend(*detector, ml::InferBackendKind::kFlat);
      cell.backend = flat->name();

      const std::size_t nf = test.num_features();
      cell.scalar_us = time_backend(*scalar, stream, nf, stream_rows, reps,
                                    scalar_scores);
      cell.flat_us =
          time_backend(*flat, stream, nf, stream_rows, reps, flat_scores);
      cell.score_match = scalar_scores == flat_scores;
      all_match = all_match && cell.score_match;

      std::fprintf(stderr,
                   "[micro_infer] %-8s %-8s scalar %8.3f us  %-7s %8.3f us "
                   " (%.2fx)%s\n",
                   std::string(ml::classifier_kind_name(kind)).c_str(),
                   std::string(ml::ensemble_kind_name(ensemble)).c_str(),
                   cell.scalar_us, cell.backend.c_str(), cell.flat_us,
                   cell.flat_us > 0.0 ? cell.scalar_us / cell.flat_us : 0.0,
                   cell.score_match ? "" : "  SCORE MISMATCH");
      cells.push_back(cell);
    }
  }

  double tree_scalar = 0.0, tree_flat = 0.0;
  for (const Cell& c : cells) {
    if (!tree_ensemble_cell(c)) continue;
    tree_scalar += c.scalar_us;
    tree_flat += c.flat_us;
  }
  const double tree_speedup = tree_flat > 0.0 ? tree_scalar / tree_flat : 0.0;

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[micro_infer] cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"micro_infer\",\n"
               "  \"capture_ms\": %lld,\n"
               "  \"hpcs\": %zu,\n"
               "  \"reps\": %zu,\n"
               "  \"batch_rows\": %zu,\n"
               "  \"tree_ensemble_speedup\": %.3f,\n"
               "  \"all_scores_match\": %s,\n"
               "  \"cells\": [\n",
               capture_ms, hpcs, reps, stream_rows, tree_speedup,
               all_match ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(
        f,
        "    {\"classifier\": \"%s\", \"ensemble\": \"%s\", "
        "\"backend\": \"%s\", \"scalar_us_per_sample\": %.4f, "
        "\"flat_us_per_sample\": %.4f, \"speedup\": %.3f, "
        "\"predictions_per_sec\": %.1f, \"score_match\": %s}%s\n",
        std::string(ml::classifier_kind_name(c.kind)).c_str(),
        std::string(ml::ensemble_kind_name(c.ensemble)).c_str(),
        c.backend.c_str(), c.scalar_us, c.flat_us,
        c.flat_us > 0.0 ? c.scalar_us / c.flat_us : 0.0,
        c.flat_us > 0.0 ? 1e6 / c.flat_us : 0.0,
        c.score_match ? "true" : "false", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "[micro_infer] wrote %s (%zu cells, tree-ensemble inference "
               "speedup %.2fx, scores %s)\n",
               out_path, cells.size(), tree_speedup,
               all_match ? "bit-identical" : "MISMATCHED");
  return all_match ? 0 : 1;
}
