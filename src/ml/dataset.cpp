#include "ml/dataset.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "support/check.h"

namespace hmd::ml {

namespace detail {

void DatasetStorage::ensure_runs() {
  // Double-checked publication: the unlocked acquire-probe makes the
  // post-build fast path lock-free, the mutex serialises racing builders,
  // and the release-store publishes the completed cache to later probes.
  if (runs_built.load(std::memory_order_acquire)) return;
  support::MutexLock lock(runs_mutex);
  if (runs_built.load(std::memory_order_relaxed)) return;
  runs.resize(columns.size());
  std::vector<std::uint32_t> order(num_rows);
  for (std::size_t f = 0; f < columns.size(); ++f) {
    const std::vector<double>& col = columns[f];
    std::iota(order.begin(), order.end(), 0u);
    // stable: equal values keep ascending storage-row order, so run
    // membership is a pure function of the value.
    std::stable_sort(order.begin(), order.end(),
                     [&col](std::uint32_t a, std::uint32_t b) {
                       return col[a] < col[b];
                     });
    FeatureRuns& fr = runs[f];
    fr.run_of.resize(num_rows);
    std::uint32_t run = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i > 0 && col[order[i]] > col[order[i - 1]]) ++run;
      fr.run_of[order[i]] = run;
    }
    fr.num_runs = num_rows > 0 ? run + 1 : 0;
  }
  runs_built.store(true, std::memory_order_release);
}

// Reads `runs` without holding runs_mutex, which the thread-safety analysis
// cannot model: the runtime precondition below is the actual guard — a true
// runs_ready() acquire-load synchronises with the builder's release-store,
// after which `runs` is immutable (ensure_appendable clones run-cached
// storage rather than appending to it).
const FeatureRuns& DatasetStorage::runs_of(std::size_t f)
    const HMD_NO_THREAD_SAFETY_ANALYSIS {
  HMD_REQUIRE_MSG(runs_ready(),
                  "value-run cache read before ensure_runs() published it");
  return runs[f];
}

}  // namespace detail

Dataset::Dataset()
    : storage_(std::make_shared<detail::DatasetStorage>(
          std::vector<std::string>{})) {}

Dataset::Dataset(std::vector<std::string> feature_names)
    : storage_(
          std::make_shared<detail::DatasetStorage>(std::move(feature_names))) {
}

void Dataset::ensure_appendable() {
  if (storage_.use_count() == 1 && identity_ && !storage_->runs_ready())
    return;
  // Copy-on-write: materialise this view into fresh storage (no run cache)
  // so the append cannot be observed through any other view.
  auto fresh =
      std::make_shared<detail::DatasetStorage>(storage_->feature_names);
  const std::size_t nf = fresh->num_features();
  fresh->num_rows = rows_.size();
  fresh->flat.reserve(rows_.size() * nf);
  fresh->y.reserve(rows_.size());
  fresh->group.reserve(rows_.size());
  for (std::size_t f = 0; f < nf; ++f) {
    fresh->columns[f].reserve(rows_.size());
    for (std::uint32_t r : rows_) fresh->columns[f].push_back(
        storage_->columns[f][r]);
  }
  for (std::uint32_t r : rows_) {
    const double* src = storage_->flat.data() + std::size_t{r} * nf;
    fresh->flat.insert(fresh->flat.end(), src, src + nf);
    fresh->y.push_back(storage_->y[r]);
    fresh->group.push_back(storage_->group[r]);
  }
  storage_ = std::move(fresh);
  std::iota(rows_.begin(), rows_.end(), 0u);
  identity_ = true;
}

void Dataset::add_row(std::vector<double> x, int label, double weight,
                      std::size_t group) {
  HMD_REQUIRE(x.size() == storage_->num_features());
  HMD_REQUIRE(label == 0 || label == 1);
  HMD_REQUIRE(weight >= 0.0);
  ensure_appendable();
  detail::DatasetStorage& s = *storage_;
  HMD_REQUIRE(s.num_rows < std::numeric_limits<std::uint32_t>::max());
  for (std::size_t f = 0; f < x.size(); ++f) s.columns[f].push_back(x[f]);
  s.flat.insert(s.flat.end(), x.begin(), x.end());
  s.y.push_back(label);
  s.group.push_back(group);
  rows_.push_back(static_cast<std::uint32_t>(s.num_rows));
  w_.push_back(weight);
  ++s.num_rows;
}

void Dataset::reserve(std::size_t rows) {
  ensure_appendable();
  detail::DatasetStorage& s = *storage_;
  const std::size_t total = s.num_rows + rows;
  for (auto& col : s.columns) col.reserve(total);
  s.flat.reserve(total * s.num_features());
  s.y.reserve(total);
  s.group.reserve(total);
  rows_.reserve(rows_.size() + rows);
  w_.reserve(w_.size() + rows);
}

std::vector<double> Dataset::column(std::size_t f) const {
  HMD_REQUIRE(f < num_features());
  std::vector<double> out;
  out.reserve(num_rows());
  const std::vector<double>& col = storage_->columns[f];
  for (std::uint32_t r : rows_) out.push_back(col[r]);
  return out;
}

std::span<const double> Dataset::column_view(
    std::size_t f, std::vector<double>& scratch) const {
  HMD_REQUIRE(f < num_features());
  const std::vector<double>& col = storage_->columns[f];
  if (identity_) return col;
  scratch.clear();
  scratch.reserve(num_rows());
  for (std::uint32_t r : rows_) scratch.push_back(col[r]);
  return scratch;
}

std::vector<double> Dataset::labels_as_double() const {
  std::vector<double> out;
  out.reserve(num_rows());
  for (std::uint32_t r : rows_)
    out.push_back(static_cast<double>(storage_->y[r]));
  return out;
}

double Dataset::total_weight() const {
  double acc = 0.0;
  for (double w : w_) acc += w;
  return acc;
}

double Dataset::positive_weight() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < num_rows(); ++i)
    if (label(i) == 1) acc += w_[i];
  return acc;
}

void Dataset::set_weights(std::vector<double> w) {
  HMD_REQUIRE(w.size() == num_rows());
  for (double v : w) HMD_REQUIRE(v >= 0.0);
  w_ = std::move(w);
}

void Dataset::normalize_weights() {
  const double total = total_weight();
  HMD_REQUIRE_MSG(total > 0.0, "cannot normalize zero-weight dataset");
  const double scale = static_cast<double>(num_rows()) / total;
  for (double& w : w_) w *= scale;
}

Dataset Dataset::select_features(std::span<const std::size_t> features) const {
  std::vector<std::string> names;
  names.reserve(features.size());
  for (std::size_t f : features) {
    HMD_REQUIRE(f < num_features());
    names.push_back(storage_->feature_names[f]);
  }
  Dataset out(std::move(names));
  out.reserve(num_rows());
  for (std::size_t i = 0; i < num_rows(); ++i) {
    std::vector<double> row;
    row.reserve(features.size());
    for (std::size_t f : features) row.push_back(value(i, f));
    out.add_row(std::move(row), label(i), w_[i], group(i));
  }
  return out;
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out;
  out.storage_ = storage_;
  out.rows_.reserve(rows.size());
  out.w_.reserve(rows.size());
  for (std::size_t i : rows) {
    HMD_REQUIRE(i < num_rows());
    out.rows_.push_back(rows_[i]);
    out.w_.push_back(w_[i]);
  }
  out.identity_ = out.rows_.size() == storage_->num_rows;
  for (std::size_t i = 0; out.identity_ && i < out.rows_.size(); ++i)
    out.identity_ = out.rows_[i] == i;
  return out;
}

Dataset Dataset::bootstrap(Rng& rng) const {
  HMD_REQUIRE(num_rows() > 0);
  std::vector<std::size_t> rows(num_rows());
  for (auto& r : rows) r = rng.below(num_rows());
  Dataset out = subset(rows);
  // A bootstrap replicate carries fresh unit weights.
  out.set_weights(std::vector<double>(out.num_rows(), 1.0));
  return out;
}

Dataset Dataset::weighted_bootstrap(Rng& rng) const {
  HMD_REQUIRE(num_rows() > 0);
  // Cumulative weights for inverse-CDF sampling.
  std::vector<double> cum(num_rows());
  double acc = 0.0;
  for (std::size_t i = 0; i < num_rows(); ++i) {
    acc += w_[i];
    cum[i] = acc;
  }
  HMD_REQUIRE_MSG(acc > 0.0, "all instance weights are zero");
  std::vector<std::size_t> rows;
  rows.reserve(num_rows());
  for (std::size_t i = 0; i < num_rows(); ++i) {
    const double r = rng.uniform(0.0, acc);
    const auto it = std::lower_bound(cum.begin(), cum.end(), r);
    rows.push_back(static_cast<std::size_t>(it - cum.begin()));
  }
  Dataset out = subset(rows);
  out.set_weights(std::vector<double>(out.num_rows(), 1.0));
  return out;
}

const detail::FeatureRuns& Dataset::feature_runs(std::size_t f) const {
  HMD_REQUIRE(f < num_features());
  storage_->ensure_runs();
  return storage_->runs_of(f);
}

void Dataset::warm_presort_cache() const { storage_->ensure_runs(); }

Split stratified_group_split(const Dataset& data, double train_frac,
                             Rng& rng) {
  HMD_REQUIRE(train_frac > 0.0 && train_frac < 1.0);
  HMD_REQUIRE(data.num_rows() > 0);

  // Group id -> label (groups are assumed label-pure: one application).
  std::set<std::size_t> benign_groups, malware_groups;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    (data.label(i) == 1 ? malware_groups : benign_groups)
        .insert(data.group(i));
  }

  auto pick_train = [&](const std::set<std::size_t>& groups) {
    std::vector<std::size_t> ids(groups.begin(), groups.end());
    // Fisher-Yates with our deterministic RNG.
    for (std::size_t i = ids.size(); i > 1; --i)
      std::swap(ids[i - 1], ids[rng.below(i)]);
    const auto n_train = static_cast<std::size_t>(
        std::max(1.0, train_frac * static_cast<double>(ids.size())));
    return std::set<std::size_t>(ids.begin(),
                                 ids.begin() + std::min(n_train, ids.size()));
  };
  const std::set<std::size_t> train_benign = pick_train(benign_groups);
  const std::set<std::size_t> train_malware = pick_train(malware_groups);

  std::vector<std::size_t> train_rows, test_rows;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const bool in_train = data.label(i) == 1
                              ? train_malware.contains(data.group(i))
                              : train_benign.contains(data.group(i));
    (in_train ? train_rows : test_rows).push_back(i);
  }
  HMD_INVARIANT(!train_rows.empty());
  return Split{data.subset(train_rows), data.subset(test_rows)};
}

std::vector<std::vector<std::size_t>> stratified_row_folds(const Dataset& data,
                                                           std::size_t k,
                                                           Rng& rng) {
  HMD_REQUIRE(k >= 2);
  std::vector<std::size_t> pos, neg;
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    (data.label(i) == 1 ? pos : neg).push_back(i);
  auto shuffle = [&](std::vector<std::size_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng.below(i)]);
  };
  shuffle(pos);
  shuffle(neg);
  std::vector<std::vector<std::size_t>> folds(k);
  for (std::size_t i = 0; i < pos.size(); ++i) folds[i % k].push_back(pos[i]);
  for (std::size_t i = 0; i < neg.size(); ++i) folds[i % k].push_back(neg[i]);
  return folds;
}

}  // namespace hmd::ml
