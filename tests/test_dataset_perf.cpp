// Columnar dataset core: view semantics, presort canonical ordering checked
// against a gather + stable_sort oracle, recorded score goldens on tied,
// weighted data, and grid results across worker-thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/hmd.h"
#include "ml/presort.h"
#include "test_util.h"

namespace hmd::ml {
namespace {

/// Small dataset with duplicated feature values (ties) and non-unit
/// weights — the regime where a change of sweep order would show.
Dataset tied_weighted(std::uint64_t seed) {
  Dataset base = testutil::gaussian_blobs(40, 2, 1, 1.5, seed);
  std::vector<std::string> names;
  for (std::size_t f = 0; f < base.num_features(); ++f)
    names.push_back(base.feature_name(f));
  Dataset data(std::move(names));
  Rng rng(seed ^ 0x7157ULL);
  for (std::size_t i = 0; i < base.num_rows(); ++i) {
    std::vector<double> row(base.row(i).begin(), base.row(i).end());
    // Quantise one column hard so many rows tie exactly.
    row[0] = std::floor(row[0]);
    const double w = 0.25 + static_cast<double>(rng.below(8)) * 0.25;
    data.add_row(std::move(row), base.label(i), w, base.group(i));
  }
  return data;
}

TEST(DatasetView, SubsetSharesStorageInColumnarMode) {
  const Dataset d = tied_weighted(1);
  const Dataset s = d.subset(std::vector<std::size_t>{5, 5, 2});
  EXPECT_EQ(s.storage_id(), d.storage_id());
  EXPECT_FALSE(s.is_identity_view());
  EXPECT_DOUBLE_EQ(s.row(0)[0], d.row(5)[0]);
  EXPECT_DOUBLE_EQ(s.row(1)[1], d.row(5)[1]);
  EXPECT_EQ(s.label(2), d.label(2));
  EXPECT_EQ(s.storage_row(2), 2u);
}

TEST(DatasetView, ViewWeightsAreIsolatedFromParent) {
  const Dataset d = tied_weighted(2);
  Dataset s = d.subset(std::vector<std::size_t>{0, 1, 2, 3});
  std::vector<double> w{9.0, 9.0, 9.0, 9.0};
  s.set_weights(std::move(w));
  EXPECT_DOUBLE_EQ(s.weight(0), 9.0);
  EXPECT_DOUBLE_EQ(d.weight(0), tied_weighted(2).weight(0));
  s.normalize_weights();
  EXPECT_NEAR(s.total_weight(), 4.0, 1e-12);
}

TEST(DatasetView, SelectFeaturesMaterialisesIdentityView) {
  const Dataset d = tied_weighted(3);
  const Dataset sub = d.subset(std::vector<std::size_t>{7, 3, 3, 1});
  const Dataset proj = sub.select_features(std::vector<std::size_t>{2, 0});
  EXPECT_NE(proj.storage_id(), d.storage_id());
  EXPECT_TRUE(proj.is_identity_view());
  EXPECT_EQ(proj.num_features(), 2u);
  EXPECT_DOUBLE_EQ(proj.row(1)[1], sub.row(1)[0]);
  EXPECT_DOUBLE_EQ(proj.weight(2), sub.weight(2));
}

TEST(DatasetView, AddRowAfterWarmCacheCopiesOnWrite) {
  Dataset d = tied_weighted(4);
  const Dataset view = d.subset(std::vector<std::size_t>{0, 1});
  d.warm_presort_cache();
  const std::size_t before = d.num_rows();
  d.add_row(std::vector<double>(d.num_features(), 0.5), 1, 1.0, 99);
  EXPECT_EQ(d.num_rows(), before + 1);
  EXPECT_DOUBLE_EQ(d.row(before)[0], 0.5);
  // The pre-existing view must still see the old storage, unchanged.
  EXPECT_EQ(view.num_rows(), 2u);
  EXPECT_NE(view.storage_id(), d.storage_id());
}

/// The reference scan sequence: gather the node rows, then stable-sort by
/// value, so ties keep the order rows appear in `rows` (ml/presort.h).
std::vector<SweepItem> oracle_gather(const Dataset& d,
                                     std::span<const std::size_t> rows,
                                     std::size_t f) {
  std::vector<SweepItem> items;
  for (std::size_t r : rows)
    items.push_back({d.value(r, f), d.label(r), d.weight(r)});
  std::stable_sort(items.begin(), items.end(),
                   [](const SweepItem& a, const SweepItem& b) {
                     return a.v < b.v;
                   });
  return items;
}

void expect_same_items(const std::vector<SweepItem>& got,
                       const std::vector<SweepItem>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].v, want[i].v) << where << " item " << i;
    EXPECT_EQ(got[i].y, want[i].y) << where << " item " << i;
    EXPECT_EQ(got[i].w, want[i].w) << where << " item " << i;
  }
}

TEST(Presort, ListsMatchStableSortOrderOnTies) {
  const Dataset d = tied_weighted(6);
  std::vector<std::size_t> rows{11, 3, 19, 3, 7, 0, 25};
  Presort presort(d);
  const Presort::Lists lists = presort.make_lists(rows);
  std::vector<SweepItem> fast;
  presort.gather(rows, lists, 0, fast);
  expect_same_items(fast, oracle_gather(d, rows, 0), "feature 0");
}

TEST(Presort, SplitAndFilterPreserveSortedOrder) {
  const Dataset d = tied_weighted(7);
  std::vector<std::size_t> rows(d.num_rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Presort presort(d);
  Presort::Lists lists = presort.make_lists(rows);
  const double thr = d.value(rows[0], 1);

  Presort::Lists left, right;
  presort.split_lists(lists, rows, 1, thr, &left, &right);
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    ASSERT_EQ(left.per[f].size() + right.per[f].size(), rows.size());
    for (std::size_t i = 1; i < left.per[f].size(); ++i)
      EXPECT_LE(d.value(left.per[f][i - 1], f), d.value(left.per[f][i], f));
    for (std::uint32_t r : left.per[f]) EXPECT_LE(d.value(r, 1), thr);
    for (std::uint32_t r : right.per[f]) EXPECT_GT(d.value(r, 1), thr);
  }

  presort.filter_lists(&lists, 1, /*leq=*/false, thr);
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    for (std::uint32_t r : lists.per[f]) EXPECT_GE(d.value(r, 1), thr);
    for (std::size_t i = 1; i < lists.per[f].size(); ++i)
      EXPECT_LE(d.value(lists.per[f][i - 1], f), d.value(lists.per[f][i], f));
  }
}

/// Differential check of Presort against the oracle: random row sets with
/// repeats, on the identity view and on non-identity views (a bootstrap-like
/// subset with repeated storage rows and fresh weights), then random
/// sequences of split_lists / filter_lists. After every step, gather must
/// equal the oracle over the node's rows for every feature.
TEST(Presort, GatherMatchesOracleThroughRandomSplitsAndFilters) {
  const Dataset base = tied_weighted(10);
  Rng rng(2024);
  std::vector<Dataset> views{base};
  for (int v = 0; v < 3; ++v) {
    std::vector<std::size_t> pick(base.num_rows());
    for (auto& r : pick) r = rng.below(base.num_rows());
    Dataset view = base.subset(pick);
    std::vector<double> w(view.num_rows());
    for (auto& x : w) x = 0.5 + static_cast<double>(rng.below(5)) * 0.5;
    view.set_weights(std::move(w));
    views.push_back(std::move(view));
  }
  ASSERT_TRUE(views[0].is_identity_view());
  ASSERT_FALSE(views[1].is_identity_view());

  const auto check_all = [](const Presort& presort, const Dataset& d,
                            const std::vector<std::size_t>& rows,
                            const Presort::Lists& lists,
                            const std::string& where) {
    std::vector<SweepItem> got;
    for (std::size_t f = 0; f < d.num_features(); ++f) {
      presort.gather(rows, lists, f, got);
      expect_same_items(got, oracle_gather(d, rows, f),
                        where + " feature " + std::to_string(f));
    }
  };

  for (std::size_t v = 0; v < views.size(); ++v) {
    const Dataset& d = views[v];
    for (int trial = 0; trial < 8; ++trial) {
      const std::string where =
          "view " + std::to_string(v) + " trial " + std::to_string(trial);
      std::vector<std::size_t> rows(1 + rng.below(2 * d.num_rows()));
      for (auto& r : rows) r = rng.below(d.num_rows());
      Presort presort(d);
      Presort::Lists lists = presort.make_lists(rows);
      check_all(presort, d, rows, lists, where);

      for (int step = 0; step < 6 && !rows.empty(); ++step) {
        const std::size_t f = rng.below(d.num_features());
        const double thr = d.value(rows[rng.below(rows.size())], f);
        std::vector<std::size_t> kept;
        if (rng.below(2) == 0) {
          Presort::Lists left, right;
          presort.split_lists(lists, rows, f, thr, &left, &right);
          const bool go_left = rng.below(2) == 0;
          for (std::size_t r : rows)
            if ((d.value(r, f) <= thr) == go_left) kept.push_back(r);
          lists = go_left ? std::move(left) : std::move(right);
        } else {
          const bool leq = rng.below(2) == 0;
          presort.filter_lists(&lists, f, leq, thr);
          for (std::size_t r : rows)
            if (leq ? d.value(r, f) <= thr : d.value(r, f) >= thr)
              kept.push_back(r);
        }
        rows = std::move(kept);
        check_all(presort, d, rows, lists,
                  where + " step " + std::to_string(step));
      }
    }
  }
}

/// End-to-end grid identity: a small experiment grid evaluated with 1 and
/// 4 worker threads must produce byte-identical metrics.
TEST(GridDeterminism, ResultsInvariantToThreads) {
  core::ExperimentConfig cfg;
  cfg.corpus.benign_per_template = 1;
  cfg.corpus.malware_per_template = 1;
  cfg.corpus.intervals_per_app = 10;
  cfg.threads = 1;
  const core::ExperimentContext ctx = core::prepare_experiment(cfg);

  const std::vector<core::GridCell> cells{
      {ClassifierKind::kJ48, EnsembleKind::kAdaBoost, 4},
      {ClassifierKind::kJRip, EnsembleKind::kBagging, 4},
      {ClassifierKind::kRepTree, EnsembleKind::kAdaBoost, 2},
      {ClassifierKind::kOneR, EnsembleKind::kBagging, 2},
  };

  std::vector<std::vector<double>> outcomes;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // A fresh projection cache per run, so each builds its own projected
    // datasets.
    core::ExperimentContext run = ctx;
    run.projections = std::make_shared<core::detail::ProjectionCache>();
    std::vector<double> flat;
    for (const auto& cell : core::run_grid(run, cells, threads)) {
      flat.push_back(cell.metrics.accuracy);
      flat.push_back(cell.metrics.auc);
    }
    outcomes.push_back(std::move(flat));
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

/// Test-split score hashes of all 24 detectors trained on tied_weighted(8)
/// and scored on tied_weighted(9): exact ties and non-unit weights, the
/// regime where a change of sweep order would show. Order: classifier-major
/// over all_classifier_kinds(), then all_ensemble_kinds().
constexpr std::uint64_t kTiedDataHashes[24] = {
    // BayesNet: General, Boosted, Bagging
    0xe6f59bb18021f80fULL, 0xb87e4689eb2fb16bULL, 0x483917c934785c47ULL,
    // J48: General, Boosted, Bagging
    0x4debbfda8d341c80ULL, 0xb5da5935b4dd69a9ULL, 0x76723a918a84b58cULL,
    // JRip: General, Boosted, Bagging
    0xacb08b4d369916b9ULL, 0xdb2400afb64957a6ULL, 0x8eea15c9165d9c86ULL,
    // MLP: General, Boosted, Bagging
    0x06b50ad160575e37ULL, 0x7d4437d44d420b33ULL, 0x20f732b9a935582cULL,
    // OneR: General, Boosted, Bagging
    0xe94d56395801ba8eULL, 0x8c01571bb017c8beULL, 0x65da963580cc978fULL,
    // REPTree: General, Boosted, Bagging
    0x5b8bcdff8e51a95dULL, 0x79e5aa0ac9241b65ULL, 0xb7a7c41dcc1c95c9ULL,
    // SGD: General, Boosted, Bagging
    0xb24e743b1e90c005ULL, 0x70ae22249d72cb9dULL, 0x90f0acfadc04a525ULL,
    // SMO: General, Boosted, Bagging
    0xb24e743b1e90c005ULL, 0xd84e16a27ae8ca45ULL, 0xc70b54ab2198f29bULL,
};

TEST(GoldenTiedData, AllDetectorsMatchRecordedScoreHashes) {
  const Dataset train = tied_weighted(8);
  const Dataset test = tied_weighted(9);
  std::size_t i = 0;
  for (ClassifierKind kind : all_classifier_kinds()) {
    for (EnsembleKind ensemble : all_ensemble_kinds()) {
      ASSERT_LT(i, std::size(kTiedDataHashes));
      auto detector = make_detector(kind, ensemble, 42);
      detector->train(train);
      std::vector<double> scores;
      for (std::size_t r = 0; r < test.num_rows(); ++r)
        scores.push_back(detector->predict_proba(test.row(r)));
      const std::uint64_t hash = testutil::fnv1a_bits(scores);
      EXPECT_EQ(hash, kTiedDataHashes[i])
          << classifier_kind_name(kind) << " / "
          << ensemble_kind_name(ensemble) << ": 0x" << std::hex << hash
          << "ULL";
      ++i;
    }
  }
  EXPECT_EQ(i, std::size(kTiedDataHashes));
}

}  // namespace
}  // namespace hmd::ml
