// Dataset container for the ML layer: a weighted, labelled feature matrix
// with application-group structure.
//
// Rows are 10 ms HPC samples; the `group` of a row is the application it was
// captured from. The paper's 70/30 split is *per application* ("70% benign-
// 70% malware application for training (known applications) and 30% ...
// for testing (unknown applications)"), so the split helpers here operate on
// groups, never on raw rows — a detector is always evaluated on applications
// it has never seen.
//
// Storage layout (columnar core): the feature matrix lives in an immutable,
// shared `detail::DatasetStorage` that keeps every feature as a contiguous
// column *and* a row-major mirror (so row() stays a contiguous span). A
// `Dataset` is a lightweight view onto that storage — a row-index map plus
// per-view instance weights — so subset(), bootstrap() and
// weighted_bootstrap() are O(rows) remaps that share the backing matrix
// instead of deep-copying it. select_features() always materialises fresh
// storage, which keeps every view's feature numbering identical to its
// storage's.
//
// The storage also carries a lazily built per-feature *value-run* cache
// (rows ranked by value, ties collapsed into runs) that the tree/rule
// learners use to replace per-node std::sort with counting sorts — see
// ml/presort.h. The cache is built once per storage under `runs_mutex`
// (concurrent grid cells race to build it; one wins, the rest wait) and
// published through the `runs_built` release-store; after a true
// acquire-load it is immutable and read lock-free through runs_of(). The
// guarded-build/lock-free-read protocol is annotated for clang's
// -Wthread-safety analysis (support/thread_safety.h). DESIGN.md §9 gives
// the tie-break and determinism contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/rng.h"
#include "support/thread_safety.h"

namespace hmd::ml {

namespace detail {

/// Per-feature value-run table: rows ranked by (value, row index), with
/// equal values collapsed into one run. `run_of[storage_row]` is the rank of
/// the row's value among the feature's distinct values; counting-sorting any
/// row set by run id yields ascending values with ties kept in input order —
/// exactly the canonical sweep order of ml/presort.h.
struct FeatureRuns {
  std::vector<std::uint32_t> run_of;  ///< storage row -> value-run id
  std::uint32_t num_runs = 0;
};

/// Shared backing store of one or more Dataset views. Immutable once any
/// view shares it (append is copy-on-write through Dataset::add_row).
struct DatasetStorage {
  std::vector<std::string> feature_names;
  std::vector<std::vector<double>> columns;  ///< [feature][storage row]
  std::vector<double> flat;                  ///< row-major mirror for row()
  std::vector<int> y;
  std::vector<std::size_t> group;
  std::size_t num_rows = 0;

  /// Value-run cache build state: `runs` is written exactly once, under
  /// `runs_mutex`, then published by the release-store of `runs_built`.
  support::Mutex runs_mutex;
  std::vector<FeatureRuns> runs HMD_GUARDED_BY(runs_mutex);
  std::atomic<bool> runs_built{false};

  explicit DatasetStorage(std::vector<std::string> names)
      : feature_names(std::move(names)), columns(feature_names.size()) {}

  std::size_t num_features() const { return feature_names.size(); }

  /// Build the per-feature value-run cache (idempotent, thread-safe:
  /// concurrent grid cells training on the same projection race here).
  void ensure_runs();

  /// True once the cache has been published (acquire: a true result makes
  /// the builder's writes to `runs` visible to this thread).
  bool runs_ready() const {
    return runs_built.load(std::memory_order_acquire);
  }

  /// Lock-free read of the published cache. Precondition: runs_ready().
  const FeatureRuns& runs_of(std::size_t f) const;
};

}  // namespace detail

class Dataset {
 public:
  Dataset();

  /// Construct with feature names; rows are added with add_row().
  explicit Dataset(std::vector<std::string> feature_names);

  void add_row(std::vector<double> x, int label, double weight = 1.0,
               std::size_t group = 0);

  /// Pre-size the backing store for `rows` rows (corpus assembly).
  void reserve(std::size_t rows);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_features() const { return storage_->num_features(); }
  bool empty() const { return rows_.empty(); }

  std::span<const double> row(std::size_t i) const {
    const std::size_t nf = storage_->num_features();
    return {storage_->flat.data() + rows_[i] * nf, nf};
  }
  /// One cell, read through the columnar store (bit-identical to
  /// row(i)[f] — both read the same stored double).
  double value(std::size_t i, std::size_t f) const {
    return storage_->columns[f][rows_[i]];
  }
  int label(std::size_t i) const { return storage_->y[rows_[i]]; }
  double weight(std::size_t i) const { return w_[i]; }
  std::size_t group(std::size_t i) const { return storage_->group[rows_[i]]; }
  const std::string& feature_name(std::size_t f) const {
    return storage_->feature_names[f];
  }
  const std::vector<std::string>& feature_names() const {
    return storage_->feature_names;
  }

  /// All values of one feature column (copy). Prefer column_view() in new
  /// code — it aliases storage directly for identity views.
  std::vector<double> column(std::size_t f) const;

  /// Feature column in view-row order, without a copy when this view is an
  /// identity view over its storage; otherwise gathered into `scratch`
  /// (resized as needed). The span is invalidated by the next call with the
  /// same scratch and by any mutation of the dataset.
  std::span<const double> column_view(std::size_t f,
                                      std::vector<double>& scratch) const;

  /// Labels as doubles (for correlation computations).
  std::vector<double> labels_as_double() const;

  /// Per-instance weights of this view (aliases internal storage).
  std::span<const double> weights() const { return w_; }

  double total_weight() const;
  double positive_weight() const;  ///< total weight of label-1 rows

  /// Replace all instance weights (AdaBoost re-weighting).
  void set_weights(std::vector<double> w);

  /// Normalise weights to sum to num_rows (WEKA convention).
  void normalize_weights();

  /// New dataset keeping only the given feature columns, in order. Always
  /// materialises fresh storage, so the result (and every view derived from
  /// it) has identity feature numbering.
  Dataset select_features(std::span<const std::size_t> features) const;

  /// New dataset with the given rows (indices may repeat — bootstrap): a
  /// zero-copy view sharing this dataset's storage.
  Dataset subset(std::span<const std::size_t> rows) const;

  /// Bootstrap sample of the same size, drawn uniformly with replacement.
  Dataset bootstrap(Rng& rng) const;

  /// Weighted bootstrap: rows drawn with probability proportional to their
  /// current weights; the result has unit weights (AdaBoost-with-resampling).
  Dataset weighted_bootstrap(Rng& rng) const;

  // --- columnar internals (ml/presort.h, benchmarks, tests) ---------------

  /// Storage row backing view row `i`.
  std::uint32_t storage_row(std::size_t i) const { return rows_[i]; }

  /// Raw storage column / labels, indexed by *storage* row (map view rows
  /// through row_map()). Lets hot loops hoist the base pointers.
  std::span<const double> raw_column(std::size_t f) const {
    return storage_->columns[f];
  }
  std::span<const int> raw_labels() const { return storage_->y; }
  std::span<const std::uint32_t> row_map() const { return rows_; }

  /// True when view row i == storage row i for the whole storage (fresh
  /// datasets and select_features outputs; generally false for subsets).
  bool is_identity_view() const { return identity_; }

  /// Identity of the backing storage (views of one dataset share it).
  const void* storage_id() const { return storage_.get(); }

  /// Value-run table of feature `f`; builds the cache on first use.
  const detail::FeatureRuns& feature_runs(std::size_t f) const;

  /// Eagerly build the per-feature sort cache (called once per projection
  /// by ExperimentContext::projected_split so all grid cells share it).
  void warm_presort_cache() const;

 private:
  /// Make the storage safe to append to: clone it when it is shared with
  /// another view, already run-cached, or viewed non-identically.
  void ensure_appendable();

  std::shared_ptr<detail::DatasetStorage> storage_;
  std::vector<std::uint32_t> rows_;  ///< view row -> storage row
  std::vector<double> w_;            ///< per-view instance weights
  bool identity_ = true;
};

/// Train/test partition.
struct Split {
  Dataset train;
  Dataset test;
};

/// Stratified split at application granularity: `train_frac` of the benign
/// apps and `train_frac` of the malware apps (by distinct group id) go to
/// training; every row of a held-out app goes to test.
Split stratified_group_split(const Dataset& data, double train_frac, Rng& rng);

/// K roughly equal folds of *rows* (stratified by label) for internal
/// grow/prune splits inside classifiers (REPTree, JRip).
std::vector<std::vector<std::size_t>> stratified_row_folds(const Dataset& data,
                                                           std::size_t k,
                                                           Rng& rng);

}  // namespace hmd::ml
