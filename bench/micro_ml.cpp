// Training micro-benchmark over the full classifier × ensemble grid.
//
// For every cell the benchmark trains one detector on the quick or paper
// corpus's projected training split and records the best-of-reps training
// wall-clock, the training throughput in rows per second, and the
// per-sample inference latency of the last trained model over the test
// split. Results land in BENCH_train.json; its "deterministic" block holds
// only the split sizes, the per-cell timings are all "measured".
//
// Flags (beyond the shared --quick/--seed/--threads set):
//   --reps N   timing repetitions per cell, best-of (default 3; 1 in --quick)
//   --hpcs N   feature-projection width to train on (default 8)
//   --out P    JSON output path (default BENCH_train.json)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hmd.h"

namespace {

using namespace hmd;

struct Cell {
  ml::ClassifierKind kind;
  ml::EnsembleKind ensemble;
  double train_ms = 0.0;    ///< best-of-reps training wall-clock
  double predict_us = 0.0;  ///< per-sample inference latency
};

/// Train one detector `reps` times; record the best training wall-clock and
/// the last model's per-sample inference latency over the test split.
void time_cell(const core::ExperimentContext& ctx, const ml::Split& split,
               std::size_t reps, Cell& cell) {
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto detector =
        ml::make_detector(cell.kind, cell.ensemble, ctx.config.model_seed);
    const double t0 = benchutil::now_ms();
    detector->train(split.train);
    const double ms = benchutil::now_ms() - t0;
    if (rep == 0 || ms < cell.train_ms) cell.train_ms = ms;
    if (rep + 1 == reps && split.test.num_rows() > 0) {
      const double p0 = benchutil::now_ms();
      for (std::size_t i = 0; i < split.test.num_rows(); ++i)
        detector->predict_proba(split.test.row(i));
      const double pms = benchutil::now_ms() - p0;
      cell.predict_us =
          1000.0 * pms / static_cast<double>(split.test.num_rows());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig cfg = benchutil::config_from_args(argc, argv);
  std::size_t reps = 0;
  std::size_t hpcs = 8;
  const char* out_path = "BENCH_train.json";
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
  }
  if (reps == 0) reps = quick ? 1 : 3;
  if (hpcs == 0) hpcs = 8;

  long long capture_ms = 0;
  const core::ExperimentContext ctx =
      benchutil::prepare(cfg, "micro_ml", &capture_ms);
  const ml::Split& split = ctx.projected_split(hpcs);
  const double rows = static_cast<double>(split.train.num_rows());

  std::vector<Cell> cells;
  for (ml::ClassifierKind kind : ml::all_classifier_kinds()) {
    for (ml::EnsembleKind ensemble : ml::all_ensemble_kinds()) {
      Cell cell{kind, ensemble};
      time_cell(ctx, split, reps, cell);
      std::fprintf(stderr, "[micro_ml] %-8s %-8s train %8.2f ms\n",
                   std::string(ml::classifier_kind_name(kind)).c_str(),
                   std::string(ml::ensemble_kind_name(ensemble)).c_str(),
                   cell.train_ms);
      cells.push_back(cell);
    }
  }

  support::JsonWriter w = benchutil::bench_report("micro_ml");
  w.object("deterministic")
      .num("hpcs", hpcs)
      .num("train_rows", split.train.num_rows())
      .num("test_rows", split.test.num_rows())
      .end();
  w.object("measured")
      .num("threads", support::resolve_threads(cfg.threads))
      .num("reps", reps)
      .num("capture_ms", capture_ms)
      .array("cells");
  for (const Cell& c : cells)
    w.inline_object()
        .str("classifier", ml::classifier_kind_name(c.kind))
        .str("ensemble", ml::ensemble_kind_name(c.ensemble))
        .num("train_ms", c.train_ms, 3)
        .num("rows_per_sec",
             c.train_ms > 0.0 ? rows / (c.train_ms / 1000.0) : 0.0, 1)
        .num("predict_us_per_sample", c.predict_us, 3)
        .end();
  w.end().end().save(out_path, "micro_ml");
  std::fprintf(stderr, "[micro_ml] wrote %s (%zu cells)\n", out_path,
               cells.size());
  return 0;
}
