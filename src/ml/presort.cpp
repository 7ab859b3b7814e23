#include "ml/presort.h"

#include "support/check.h"

namespace hmd::ml {

Presort::Presort(const Dataset& data)
    : data_(&data), identity_(data.is_identity_view()) {}

Presort::Lists Presort::make_lists(std::span<const std::size_t> rows) {
  Lists out;
  const std::size_t nf = data_->num_features();
  const std::uint32_t* map = data_->row_map().data();
  out.per.resize(nf);
  for (std::size_t f = 0; f < nf; ++f) {
    const detail::FeatureRuns& runs = data_->feature_runs(f);
    const std::uint32_t* run_of = runs.run_of.data();
    // Counting sort by run id; iterating `rows` in order twice keeps ties
    // in input order (the canonical tie-break).
    offsets_.assign(runs.num_runs + 1, 0);
    for (std::size_t r : rows) ++offsets_[run_of[map[r]] + 1];
    for (std::size_t k = 1; k < offsets_.size(); ++k)
      offsets_[k] += offsets_[k - 1];
    List& list = out.per[f];
    list.resize(rows.size());
    for (std::size_t r : rows)
      list[offsets_[run_of[map[r]]]++] = static_cast<std::uint32_t>(r);
  }
  return out;
}

void Presort::split_lists(const Lists& parent,
                          std::span<const std::size_t> parent_rows,
                          std::size_t feature, double threshold, Lists* left,
                          Lists* right) {
  // Flags are only ever read for this node's rows, all of which are written
  // below, so the scratch never needs resetting between nodes.
  side_.resize(data_->num_rows());
  const double* col = data_->raw_column(feature).data();
  const std::uint32_t* map = data_->row_map().data();
  std::size_t n_left = 0;
  for (std::size_t r : parent_rows) {
    const std::uint8_t s = col[map[r]] <= threshold ? 1 : 0;
    side_[r] = s;
    n_left += s;
  }
  left->per.resize(parent.per.size());
  right->per.resize(parent.per.size());
  for (std::size_t f = 0; f < parent.per.size(); ++f) {
    const List& src = parent.per[f];
    List& l = left->per[f];
    List& r = right->per[f];
    l.clear();
    r.clear();
    l.reserve(n_left);
    r.reserve(src.size() - n_left);
    for (std::uint32_t row : src) (side_[row] != 0 ? l : r).push_back(row);
  }
}

void Presort::filter_lists(Lists* lists, std::size_t feature, bool leq,
                           double value) {
  // Test the condition once per row, on the feature's own list (it holds
  // every row of the node), then filter every list by the row's flag.
  side_.resize(data_->num_rows());
  const double* col = data_->raw_column(feature).data();
  const std::uint32_t* map = data_->row_map().data();
  for (std::uint32_t row : lists->per[feature]) {
    const double v = col[map[row]];
    side_[row] = (leq ? v <= value : v >= value) ? 1 : 0;
  }
  for (List& list : lists->per) {
    std::size_t kept = 0;
    for (std::uint32_t row : list) {
      list[kept] = row;
      kept += side_[row];
    }
    list.resize(kept);
  }
}

void Presort::gather(std::span<const std::size_t> rows, const Lists& lists,
                     std::size_t f, std::vector<SweepItem>& items) const {
  const List& list = lists.per[f];
  HMD_INVARIANT(list.size() == rows.size());
  // Hoist the storage pointers: the compiler cannot prove the writes to
  // `items` don't alias the dataset internals, so the inline accessors
  // would reload them on every iteration.
  const double* col = data_->raw_column(f).data();
  const int* y = data_->raw_labels().data();
  const double* w = data_->weights().data();
  const std::uint32_t* map = data_->row_map().data();
  items.resize(list.size());
  SweepItem* out = items.data();
  if (identity_) {
    for (std::uint32_t r : list) *out++ = {col[r], y[r], w[r]};
  } else {
    for (std::uint32_t r : list) *out++ = {col[map[r]], y[map[r]], w[r]};
  }
}

}  // namespace hmd::ml
