// Reproduces paper Figure 3: "Accuracy results for various ML classifiers
// with varying number of HPCs".
//
// For each of the 8 general classifiers we report detection accuracy with
// the top {16, 8, 4, 2} ranked HPCs, for the General, AdaBoost ("Boosted")
// and Bagging variants — the full evaluation grid behind the figure. The
// 96 cells are evaluated concurrently via core::run_grid (results are
// bit-identical for any --threads value) and the wall-clock numbers are
// recorded in BENCH_grid.json.
#include <iostream>

#include "bench_util.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace hmd;
  const auto cfg = benchutil::config_from_args(argc, argv);
  long long capture_ms = 0;
  const auto ctx = benchutil::prepare(cfg, "fig3", &capture_ms);

  const auto cells = core::full_grid();
  const double t0 = benchutil::now_ms();
  const auto results = core::run_grid(ctx, cells, cfg.threads);
  const auto grid_ms = static_cast<long long>(benchutil::now_ms() - t0);
  std::fprintf(stderr, "[fig3] grid done: %zu cells, %lld ms\n",
               results.size(), grid_ms);

  TextTable table("Figure 3 — Detection accuracy (%) vs number of HPCs");
  table.set_header({"Classifier", "Variant", "16HPC", "8HPC", "4HPC",
                    "2HPC"});

  // full_grid() is classifier-major, then ensemble, then {16,8,4,2} —
  // exactly one table row per 4 consecutive results.
  for (std::size_t i = 0; i < results.size(); i += 4) {
    std::vector<std::string> row{
        std::string(ml::classifier_kind_name(results[i].classifier)),
        std::string(ml::ensemble_kind_name(results[i].ensemble))};
    for (std::size_t c = 0; c < 4; ++c)
      row.push_back(benchutil::pct(results[i + c].metrics.accuracy));
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  benchutil::write_grid_bench_json({"fig3_accuracy", capture_ms, grid_ms,
                                    support::resolve_threads(cfg.threads),
                                    results.size()});

  std::cout <<
      "\nPaper shape check: general classifiers lose accuracy as HPCs "
      "shrink;\nensemble variants at 2-4 HPCs recover to the 8-16 HPC "
      "level\n(paper's example: REPTree 2HPC-Boosted ~= its 16HPC ~88%).\n";
  return 0;
}
