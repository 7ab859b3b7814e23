// Presorted-feature split search for the tree/rule learners.
//
// Every sort-based learner in this library (J48, REPTree, RandomTree, JRip,
// OneR) scans each feature's values in ascending order, accumulating class
// weights to score split candidates. The canonical scan order is:
//
//   ascending value; ties in the order the rows appear in the node's row
//   list (for trees that list is always ascending view-row order; for
//   JRip's grow sets it is the shuffled grow order).
//
// Presort produces that sequence without a comparison sort below the root:
// it counting-sorts the training set's rows once per tree/rule by each
// feature's cached value-run ids (Dataset::feature_runs), then maintains the
// per-feature sorted lists down the tree by order-preserving partition —
// O(features · n) per node. The sequence equals gathering the node rows and
// std::stable_sort-ing them by value, which the tests use as the oracle.
//
// A counting sort keyed by run id is stable in the input order, and an
// order-preserving partition of a sorted list leaves each side sorted, so
// both invariants of the canonical order survive every node split and every
// rule-condition filter. See DESIGN.md §9.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace hmd::ml {

/// One row of a split-search scan: feature value, label, instance weight.
struct SweepItem {
  double v;
  int y;
  double w;
};

class Presort {
 public:
  /// View rows of one node, sorted by one feature (canonical order).
  using List = std::vector<std::uint32_t>;

  /// One List per feature of the same node.
  struct Lists {
    std::vector<List> per;
  };

  /// Binds to the training view for the duration of this training pass.
  explicit Presort(const Dataset& data);

  /// Sorted per-feature lists of `rows` via counting sort on the cached
  /// value runs; ties keep the order rows appear in `rows`.
  Lists make_lists(std::span<const std::size_t> rows);

  /// Partition a node's lists by `x[feature] <= threshold` into left/right,
  /// preserving order (each side stays in canonical order). `parent_rows`
  /// is the node's row set.
  void split_lists(const Lists& parent,
                   std::span<const std::size_t> parent_rows,
                   std::size_t feature, double threshold, Lists* left,
                   Lists* right);

  /// Drop every list entry not matching the rule condition
  /// (x[feature] <= value, or >= when !leq) — JRip's grow-set shrink.
  void filter_lists(Lists* lists, std::size_t feature, bool leq,
                    double value);

  /// Fill `items` with the node's canonical scan sequence for feature `f`,
  /// read from the presorted list. `rows` is the node's row set, which the
  /// list must match in size.
  void gather(std::span<const std::size_t> rows, const Lists& lists,
              std::size_t f, std::vector<SweepItem>& items) const;

  /// Reusable gather target, so per-node sweeps don't reallocate.
  std::vector<SweepItem>& scratch() { return scratch_; }

 private:
  const Dataset* data_;
  bool identity_;  ///< dataset is an identity view (skip the row map)
  std::vector<std::uint32_t> offsets_;  ///< counting-sort scratch
  std::vector<std::uint8_t> side_;      ///< split/filter per-row side flags
  std::vector<SweepItem> scratch_;
};

}  // namespace hmd::ml
