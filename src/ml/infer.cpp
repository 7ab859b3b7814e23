#include "ml/infer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <variant>

#include "ml/model_ir.h"
#include "support/check.h"

namespace hmd::ml {

namespace {

// -1 = unresolved (read HMD_INFER_BACKEND on first use), else the kind.
std::atomic<int> g_infer_backend{-1};

// ---------------------------------------------------------------------------
// Scalar reference backend (also the generic fallback behind kFlat).

class ScalarBackend final : public InferenceBackend {
 public:
  /// `label` is "scalar" or "generic" (both static strings).
  ScalarBackend(const Classifier& model, std::string_view label)
      : model_(model), label_(label) {}

  std::string_view name() const override { return label_; }

  void predict_proba_batch(std::span<const double> x,
                           std::size_t num_features,
                           std::span<double> out) const override {
    HMD_REQUIRE(x.size() == out.size() * num_features);
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = model_.predict_proba(x.subspan(i * num_features, num_features));
  }

 private:
  const Classifier& model_;
  std::string_view label_;
};

// ---------------------------------------------------------------------------
// Flat backend: the model lowered into contiguous struct-of-arrays blocks,
// scored with branch-free inner loops.

class FlatBackend final : public InferenceBackend {
 public:
  /// How member scores combine into the model score. The arithmetic and
  /// accumulation order replicate the scalar ensembles exactly: kAverage is
  /// Bagging/RandomForest's member-order sum then divide-by-count; kVote is
  /// AdaBoost's alpha-weighted hard vote normalised by the member-order
  /// alpha sum.
  enum class Combine { kSingle, kAverage, kVote };

  struct Member {
    enum class Unit : std::uint8_t { kTree, kBuckets };
    Unit unit = Unit::kTree;
    // kTree: the member's slice of the node block starts at `first_node`,
    // child indices inside it are LOCAL to that slice (so they fit u16),
    // evaluation enters at local index `entry`, and `depth` bounds the
    // walk (the member's longest entry-to-leaf path). JRip members are
    // kTree too — their decision list compiles into the shared node block
    // (see add_rules).
    std::uint32_t first_node = 0;
    std::uint16_t entry = 0;
    std::uint32_t depth = 0;
    // kBuckets: tested feature and the cut/probability slices.
    std::uint32_t feature = 0;
    std::uint32_t first_cut = 0;
    std::uint32_t num_cuts = 0;
    std::uint32_t first_bucket = 0;
    double alpha = 1.0;  ///< vote weight (kVote only)
  };

  std::string_view name() const override { return "flat"; }

  void predict_proba_batch(std::span<const double> x,
                           std::size_t num_features,
                           std::span<double> out) const override;

  // Node block (all trees of the model). One packed 16-byte record per
  // node — four nodes per cache line, where the scalar arena node (48+
  // bytes, leaf flag, int64 children) straddles two lines on its own; a
  // full-scale tree ensemble shrinks from several L1-sized blocks to one,
  // which is exactly what the walk's top levels need to stay resident.
  // Child indices are local to the member's slice (u16; lowering falls
  // back to the generic backend for the absurd case of a >65535-node
  // member) and sit in an indexable pair (child[0] = `<=` branch,
  // child[1] = `>` branch) so the per-visit select is an indexed load,
  // never a data-dependent branch. Leaves self-loop (child[0] ==
  // child[1] == self), so the walk needs no leaf test: a settled lane
  // just stops moving. Leaf probabilities live in the parallel
  // `leaf_proba_` array — they are read once per settled sample, not per
  // visit, so keeping them out of the node doubles walk cache density.
  struct FlatTreeNode {
    double threshold = 0.0;
    std::uint16_t feature = 0;
    std::uint16_t child[2] = {0, 0};
    std::uint16_t pad = 0;
  };
  static_assert(sizeof(FlatTreeNode) == 16);
  std::vector<FlatTreeNode> nodes_;
  std::vector<double> leaf_proba_;  ///< per node: leaf P(malware), else 0

  // Bucket block (OneR members).
  std::vector<double> cuts_;
  std::vector<double> bucket_proba_;

  std::vector<Member> members_;
  Combine combine_ = Combine::kSingle;
  double alpha_total_ = 0.0;     ///< member-order sum of vote alphas
  std::size_t min_features_ = 0; ///< 1 + max feature index consumed

 private:
  // The eval loops are generic over how a finished sample's probability
  // leaves the loop (`Emit`): stored for single models, accumulated for
  // kAverage, vote-masked for kVote. Fusing the combine into the member
  // walk this way means an ensemble member costs its walk and one add — no
  // per-member score buffer to store, reload and reduce.
  // Every eval walks the n contiguous rows at `x` in storage order and
  // emits row i's probability as emit(i, p). (A path-sorted schedule —
  // grouping rows by the leaf the first member settled them in, so later
  // lane groups share similar depths — was measured here and lost: the
  // collect/sort/permute overhead per tile exceeded the idle-lane visits
  // it removed at these ensemble depths, ~1.76x vs ~1.98x aggregate.)
  template <class Emit>
  void eval_member(const Member& m, const double* x, std::size_t nf,
                   std::size_t n, Emit emit) const;
  template <class Emit>
  void eval_tree(const Member& m, const double* x, std::size_t nf,
                 std::size_t n, Emit emit) const;
  template <class Emit>
  void eval_buckets(const Member& m, const double* x, std::size_t nf,
                    std::size_t n, Emit emit) const;
};

/// Emit policies: how one member's per-sample probability is committed.
struct EmitStore {
  double* out;
  void operator()(std::size_t i, double p) const { out[i] = p; }
};

struct EmitAdd {
  double* acc;
  void operator()(std::size_t i, double p) const { acc[i] += p; }
};

/// AdaBoost hard vote, branch-free: adds exactly `alpha` when the member
/// says malware and exactly +0.0 otherwise (the mask keeps the bits of
/// alpha or clears them — no rounding is involved, so the accumulated sum
/// is bit-identical to the scalar `if (vote) sum += alpha` chain).
struct EmitVote {
  double* acc;
  double alpha;
  void operator()(std::size_t i, double p) const {
    const std::uint64_t take =
        std::uint64_t{0} - static_cast<std::uint64_t>(p >= kDecisionThreshold);
    acc[i] +=
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(alpha) & take);
  }
};

void FlatBackend::predict_proba_batch(std::span<const double> x,
                                      std::size_t num_features,
                                      std::span<double> out) const {
  HMD_REQUIRE(x.size() == out.size() * num_features);
  // The scalar walk re-validates feature bounds at every node
  // (HMD_INVARIANT(feature < x.size())); here the whole batch shares one
  // width, so the check hoists out of the hot loop entirely.
  HMD_REQUIRE(num_features >= min_features_);
  const std::size_t n = out.size();
  if (n == 0) return;
  const double* px = x.data();

  // 128 rows x 8 features x 8 bytes = 8 KiB of x per tile: small enough
  // that the tile AND the ensemble's hot top-of-tree node lines coexist
  // in L1 (a 512-row tile is 32 KiB — it owned the whole cache and
  // evicted the nodes between members).
  constexpr std::size_t kTile = 128;

  if (combine_ == Combine::kSingle) {
    const Member& m = members_.front();
    for (std::size_t t = 0; t < n; t += kTile) {
      const std::size_t tn = std::min(kTile, n - t);
      eval_member(m, px + t * num_features, num_features, tn,
                  EmitStore{out.data() + t});
    }
    return;
  }

  // Ensemble combine runs tiled: each member scores one kTile-row slice
  // before the next tile starts, so the slice of x (and the accumulator)
  // stays cache-resident across the whole member loop. Scoring the full
  // batch member by member instead would re-stream every byte of x from
  // outer cache levels once per member. acc[i] accumulates the same
  // member-order sequence of operands as the scalar model — kAverage as
  // Bagging/RandomForest's sum then divide-by-count, kVote as
  // AdaBoostM1's alpha-weighted hard vote over the member-order alpha
  // sum — so combining stays bit-identical.
  double acc[kTile];
  for (std::size_t t = 0; t < n; t += kTile) {
    const std::size_t tn = std::min(kTile, n - t);
    const double* tx = px + t * num_features;
    std::fill(acc, acc + tn, 0.0);
    if (combine_ == Combine::kAverage) {
      for (const Member& m : members_)
        eval_member(m, tx, num_features, tn, EmitAdd{acc});
      const double count = static_cast<double>(members_.size());
      for (std::size_t i = 0; i < tn; ++i) out[t + i] = acc[i] / count;
    } else {
      for (const Member& m : members_)
        eval_member(m, tx, num_features, tn, EmitVote{acc, m.alpha});
      for (std::size_t i = 0; i < tn; ++i)
        out[t + i] = alpha_total_ > 0.0 ? acc[i] / alpha_total_ : 0.5;
    }
  }
}

template <class Emit>
void FlatBackend::eval_member(const Member& m, const double* x,
                              std::size_t nf, std::size_t n,
                              Emit emit) const {
  switch (m.unit) {
    case Member::Unit::kTree: eval_tree(m, x, nf, n, emit); return;
    case Member::Unit::kBuckets:
      eval_buckets(m, x, nf, n, emit);
      return;
  }
  throw InvariantError("unknown flat member unit");
}

/// Interleaved group walk, kLanes samples at a time. The per-visit chain
/// (load node -> load feature value -> compare -> indexed child load) is
/// ~15 cycles of pure latency; one sample at a time that latency IS the
/// runtime, but the eight lanes here are fully independent, so the
/// out-of-order core overlaps them and the walk runs at load-port
/// throughput instead. All lane state lives in registers — the 8-entry
/// array scalarises after unrolling — so a visit costs exactly its three
/// loads: no probability tracking (leaves self-loop, so the walk's final
/// index IS the leaf and its probability is fetched once at the end), no
/// bookkeeping stores, no compaction shuffle.
///
/// Settled lanes re-walk their leaf's self-loop: an idempotent cached
/// reload instead of a per-lane exit branch. The `moved` reduction stops
/// the level loop once the whole group has settled, so a group pays its
/// own max leaf depth, not the tree's. (A per-lane early-exit-and-refill
/// schedule would pay each sample's exact path instead, but it was
/// measured strictly worse here at every depth: its leaf-exit branch is
/// taken once per sample at an unpredictable time, and that one
/// mispredict per sample-member costs more than the idle lane visits it
/// saves.) The per-sample select is an indexed load from child[2] — by
/// construction never a data-dependent branch, so random per-sample
/// paths cannot mispredict.
template <class Emit>
void FlatBackend::eval_tree(const Member& m, const double* x, std::size_t nf,
                            std::size_t n, Emit emit) const {
  const FlatTreeNode* __restrict nodes = nodes_.data() + m.first_node;
  const double* __restrict proba = leaf_proba_.data() + m.first_node;
  const double* __restrict px = x;
  if (m.depth == 0) {
    // Degenerate single-leaf tree: constant prediction, nothing to walk
    // (and nothing to read from x, which may legitimately be empty here).
    const double p = proba[m.entry];
    for (std::size_t i = 0; i < n; ++i) emit(i, p);
    return;
  }
  constexpr std::size_t kLanes = 8;
  std::size_t b = 0;
  for (; b + kLanes <= n; b += kLanes) {
    const double* __restrict base = px + b * nf;
    std::uint32_t idx[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) idx[k] = m.entry;
    for (std::uint32_t d = 0; d <= m.depth; ++d) {
      std::uint32_t moved = 0;
      for (std::size_t k = 0; k < kLanes; ++k) {
        const FlatTreeNode& nd = nodes[idx[k]];
        const std::size_t go_right = static_cast<std::size_t>(
            !(base[k * nf + nd.feature] <= nd.threshold));
        const std::uint32_t next = nd.child[go_right];
        moved |= next ^ idx[k];
        idx[k] = next;
      }
      if (moved == 0) break;
    }
    for (std::size_t k = 0; k < kLanes; ++k)
      emit(b + k, proba[idx[k]]);
  }
  for (; b < n; ++b) {
    const double* row = px + b * nf;
    std::uint32_t i = m.entry;
    for (std::uint32_t d = 0; d <= m.depth; ++d) {
      const FlatTreeNode& nd = nodes[i];
      const std::size_t go_right =
          static_cast<std::size_t>(!(row[nd.feature] <= nd.threshold));
      const std::uint32_t next = nd.child[go_right];
      if (next == i) break;
      i = next;
    }
    emit(b, proba[i]);
  }
}

template <class Emit>
void FlatBackend::eval_buckets(const Member& m, const double* x,
                               std::size_t nf, std::size_t n,
                               Emit emit) const {
  const double* cuts = cuts_.data() + m.first_cut;
  const double* proba = bucket_proba_.data() + m.first_bucket;
  // The bucket index is the number of cuts <= v, exactly what OneR's
  // upper_bound computes over the ascending cut array. Small arrays use a
  // counting scan (one predicated add per cut, no branches to predict);
  // past ~16 cuts the O(cuts) scan loses to a branchless binary search —
  // each step halves the candidate range with a conditional-move offset,
  // so the search is O(log cuts) with no data-dependent branches either.
  // Both forms compute the identical count for the finite feature values
  // this pipeline produces, so scores stay bit-identical to the scalar
  // model's upper_bound.
  constexpr std::uint32_t kScanMax = 16;
  if (m.num_cuts <= kScanMax) {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = x[i * nf + m.feature];
      std::uint32_t bucket = 0;
      for (std::uint32_t k = 0; k < m.num_cuts; ++k)
        bucket += cuts[k] <= v ? 1u : 0u;
      emit(i, proba[bucket]);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i * nf + m.feature];
    // Invariant: the answer lies in [lo, lo + len]; cuts[lo - 1] <= v (or
    // lo == 0) and v < cuts[lo + len] (or lo + len == num_cuts). Probing
    // the midpoint keeps it, and len shrinks by half each step.
    std::uint32_t lo = 0;
    std::uint32_t len = m.num_cuts;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      lo += cuts[lo + half - 1] <= v ? half : 0u;
      len -= half;
    }
    const std::uint32_t bucket = lo + (cuts[lo] <= v ? 1u : 0u);
    emit(i, proba[bucket]);
  }
}

// ---------------------------------------------------------------------------
// Lowering a model's IR into a FlatBackend.

/// The node block's child indices are member-local u16s (half the node
/// size, twice the cache density); members past this size have no flat
/// form and fall back to the generic backend.
constexpr std::size_t kMaxMemberNodes = 65535;

/// Lowers one IR node into `fb`, with vote weight `alpha`; returns false
/// when it has no flat form (linear, MLP and BayesNet structures, nested
/// ensembles, members past the u16 encoding). An ensemble lowers only at
/// the top, each member into its own slice of the blocks, in member order.
struct Lowering {
  FlatBackend& fb;
  double alpha = 1.0;
  bool top = true;

  bool operator()(const TreeIr& tree) const;
  bool operator()(const RuleListIr& list) const;
  bool operator()(const BucketRuleIr& rule) const;
  bool operator()(const EnsembleIr& ens) const;
  bool operator()(const LinearIr&) const { return false; }
  bool operator()(const MlpIr&) const { return false; }
  bool operator()(const BayesNetIr&) const { return false; }
};

/// Append one tree to the node block. TreeIr nodes are breadth-first with
/// index 0 as the root, so children always follow their parent and a
/// single forward pass computes every node's depth.
bool Lowering::operator()(const TreeIr& tree) const {
  const std::vector<TreeNodeIr>& nodes = tree.nodes;
  HMD_INVARIANT(!nodes.empty());
  if (nodes.size() > kMaxMemberNodes) return false;
  const auto base = static_cast<std::uint32_t>(fb.nodes_.size());
  std::vector<std::uint32_t> depth(nodes.size(), 0);
  std::uint32_t max_depth = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TreeNodeIr& node = nodes[i];
    FlatBackend::FlatTreeNode flat;
    double proba = 0.0;
    if (node.leaf) {
      const auto self = static_cast<std::uint16_t>(i);
      flat.child[0] = self;
      flat.child[1] = self;
      proba = node.proba;
    } else {
      if (node.feature > kMaxMemberNodes) return false;  // u16 feature
      flat.feature = static_cast<std::uint16_t>(node.feature);
      flat.threshold = node.threshold;
      flat.child[0] = static_cast<std::uint16_t>(node.left);
      flat.child[1] = static_cast<std::uint16_t>(node.right);
      depth[node.left] = depth[i] + 1;
      depth[node.right] = depth[i] + 1;
      max_depth = std::max(max_depth, depth[i] + 1);
      fb.min_features_ = std::max(fb.min_features_, node.feature + 1);
    }
    fb.nodes_.push_back(flat);
    fb.leaf_proba_.push_back(proba);
  }
  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kTree;
  m.first_node = base;
  m.entry = 0;          // the root sits at local index 0
  m.depth = max_depth;  // a single-leaf root walks zero iterations
  m.alpha = alpha;
  fb.members_.push_back(m);
  return true;
}

/// Compile a JRip decision list into the shared flat node block. A
/// decision list IS a degenerate decision DAG: each condition becomes one
/// node whose pass edge continues the rule's conjunction (ending in the
/// rule's fire leaf) and whose fail edge jumps to the next rule's entry
/// (ultimately the default leaf). Fail edges of different conditions share
/// targets — the walk only follows child indices, so a DAG is as walkable
/// as a tree, and JRip members ride the same branch-free interleaved walk
/// as J48/RepTree instead of needing a rule interpreter of their own.
///
/// The walk's one comparison shape is `x <= threshold ? child[0] :
/// child[1]`. A `x[f] <= v` condition maps directly; a `x[f] >= v`
/// condition lowers exactly to `x[f] > nextafter(v, -inf)` — for the
/// finite doubles HPC features are drawn from, `x > prev(v)` and `x >= v`
/// select the same values — with the pass edge on child[1].
bool Lowering::operator()(const RuleListIr& list) const {
  const std::vector<RuleIr>& rules = list.rules;
  const auto num_rules = static_cast<std::uint32_t>(rules.size());
  const auto base = static_cast<std::uint32_t>(fb.nodes_.size());

  // Layout (all indices member-local): all condition chains in rule
  // order, then one fire leaf per rule, then the shared default leaf.
  std::vector<std::uint16_t> chain_start(rules.size());
  std::uint32_t chain_total = 0;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    chain_start[r] = static_cast<std::uint16_t>(chain_total);
    chain_total += static_cast<std::uint32_t>(rules[r].conditions.size());
    if (chain_total + num_rules + 1 > kMaxMemberNodes) return false;
  }
  const auto first_fire = static_cast<std::uint16_t>(chain_total);
  const auto default_leaf = static_cast<std::uint16_t>(first_fire + num_rules);
  // Where evaluation of rule r begins: its first condition, or straight to
  // its fire leaf for an unconditional rule; past the last rule, the
  // default leaf.
  const auto entry = [&](std::size_t r) {
    if (r >= rules.size()) return default_leaf;
    if (rules[r].conditions.empty())
      return static_cast<std::uint16_t>(first_fire + r);
    return chain_start[r];
  };

  for (std::size_t r = 0; r < rules.size(); ++r) {
    const std::vector<RuleConditionIr>& conds = rules[r].conditions;
    for (std::size_t j = 0; j < conds.size(); ++j) {
      const RuleConditionIr& c = conds[j];
      const std::uint16_t pass =
          j + 1 < conds.size()
              ? static_cast<std::uint16_t>(chain_start[r] + j + 1)
              : static_cast<std::uint16_t>(first_fire + r);
      const std::uint16_t fail = entry(r + 1);
      if (c.feature > kMaxMemberNodes) return false;  // u16 feature
      FlatBackend::FlatTreeNode node;
      node.feature = static_cast<std::uint16_t>(c.feature);
      if (c.leq) {
        node.threshold = c.value;
        node.child[0] = pass;
        node.child[1] = fail;
      } else {
        node.threshold = std::nextafter(
            c.value, -std::numeric_limits<double>::infinity());
        node.child[0] = fail;
        node.child[1] = pass;
      }
      fb.min_features_ = std::max(fb.min_features_, c.feature + 1);
      fb.nodes_.push_back(node);
      fb.leaf_proba_.push_back(0.0);
    }
  }
  for (std::size_t r = 0; r < rules.size(); ++r) {
    FlatBackend::FlatTreeNode leaf;
    const auto self = static_cast<std::uint16_t>(first_fire + r);
    leaf.child[0] = self;
    leaf.child[1] = self;
    fb.nodes_.push_back(leaf);
    // The value the scalar decision list returns when this rule fires
    // first, resolved at lowering time instead of per prediction.
    fb.leaf_proba_.push_back(list.target_class == 1
                                 ? rules[r].precision
                                 : 1.0 - rules[r].precision);
  }
  FlatBackend::FlatTreeNode fallback;
  fallback.child[0] = default_leaf;
  fallback.child[1] = default_leaf;
  fb.nodes_.push_back(fallback);
  fb.leaf_proba_.push_back(list.default_proba);

  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kTree;
  m.first_node = base;
  m.entry = entry(0);
  // Longest possible path visits every condition once (fail through the
  // whole list) plus the final leaf.
  m.depth = rules.empty() ? 0 : chain_total + 1;
  m.alpha = alpha;
  fb.members_.push_back(m);
  return true;
}

bool Lowering::operator()(const BucketRuleIr& rule) const {
  FlatBackend::Member m;
  m.unit = FlatBackend::Member::Unit::kBuckets;
  m.feature = static_cast<std::uint32_t>(rule.feature);
  m.first_cut = static_cast<std::uint32_t>(fb.cuts_.size());
  m.num_cuts = static_cast<std::uint32_t>(rule.cuts.size());
  m.first_bucket = static_cast<std::uint32_t>(fb.bucket_proba_.size());
  m.alpha = alpha;
  fb.cuts_.insert(fb.cuts_.end(), rule.cuts.begin(), rule.cuts.end());
  fb.bucket_proba_.insert(fb.bucket_proba_.end(), rule.proba.begin(),
                          rule.proba.end());
  fb.min_features_ = std::max(fb.min_features_, rule.feature + 1);
  fb.members_.push_back(m);
  return true;
}

/// kAdaBoost votes with the raw member weights (the alphas) and
/// normalises by their member-order sum, exactly as AdaBoostM1 does;
/// kBagging averages (Bagging and RandomForest).
bool Lowering::operator()(const EnsembleIr& ens) const {
  if (!top || ens.members.empty()) return false;
  const bool vote = ens.kind == EnsembleIr::Kind::kAdaBoost;
  fb.combine_ =
      vote ? FlatBackend::Combine::kVote : FlatBackend::Combine::kAverage;
  for (std::size_t m = 0; m < ens.members.size(); ++m) {
    const double member_alpha = vote ? ens.member_raw_weights[m] : 1.0;
    if (!std::visit(Lowering{fb, member_alpha, /*top=*/false},
                    ens.members[m].structure))
      return false;
    if (vote) fb.alpha_total_ += member_alpha;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

InferBackendKind infer_backend_kind() {
  int kind = g_infer_backend.load(std::memory_order_relaxed);
  if (kind < 0) {
    const char* env = std::getenv("HMD_INFER_BACKEND");
    const auto parsed = env != nullptr
                            ? backend_kind_from_name(env)
                            : std::optional<InferBackendKind>{};
    kind = static_cast<int>(parsed.value_or(InferBackendKind::kFlat));
    g_infer_backend.store(kind, std::memory_order_relaxed);
  }
  return static_cast<InferBackendKind>(kind);
}

void set_infer_backend_kind(InferBackendKind kind) {
  g_infer_backend.store(static_cast<int>(kind), std::memory_order_relaxed);
}

std::optional<InferBackendKind> backend_kind_from_name(
    std::string_view name) {
  if (name == "scalar") return InferBackendKind::kScalar;
  if (name == "flat") return InferBackendKind::kFlat;
  return std::nullopt;
}

std::string_view backend_kind_name(InferBackendKind kind) {
  switch (kind) {
    case InferBackendKind::kScalar: return "scalar";
    case InferBackendKind::kFlat: return "flat";
  }
  throw PreconditionError("unknown inference backend kind");
}

void InferenceBackend::predict_proba_batch(const Dataset& data,
                                           std::span<double> out) const {
  HMD_REQUIRE(out.size() == data.num_rows());
  const std::size_t nf = data.num_features();
  if (data.num_rows() == 0) return;
  if (data.is_identity_view()) {
    // Identity views read the storage's row-major mirror directly — the
    // whole test split is one contiguous block, no gather.
    predict_proba_batch(
        std::span<const double>(data.row(0).data(), data.num_rows() * nf),
        nf, out);
    return;
  }
  std::vector<double> gathered(data.num_rows() * nf);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const auto row = data.row(i);
    std::copy(row.begin(), row.end(),
              gathered.begin() + static_cast<std::ptrdiff_t>(i * nf));
  }
  predict_proba_batch(gathered, nf, out);
}

std::vector<double> InferenceBackend::predict_proba_batch(
    const Dataset& data) const {
  std::vector<double> out(data.num_rows());
  predict_proba_batch(data, out);
  return out;
}

double InferenceBackend::predict_proba(std::span<const double> x) const {
  double out = 0.0;
  predict_proba_batch(x, x.size(), std::span<double>(&out, 1));
  return out;
}

std::unique_ptr<InferenceBackend> make_backend(const Classifier& model,
                                               InferBackendKind kind) {
  if (kind == InferBackendKind::kFlat) {
    // Untrained models have no structure: they get the generic backend,
    // so the scalar "train() must be called first" error surfaces at
    // predict time.
    if (const std::optional<ModelStructure> structure =
            model.trained_structure()) {
      auto flat = std::make_unique<FlatBackend>();
      if (std::visit(Lowering{*flat}, *structure)) return flat;
    }
    return std::make_unique<ScalarBackend>(model, "generic");
  }
  return std::make_unique<ScalarBackend>(model, "scalar");
}

std::unique_ptr<InferenceBackend> make_active_backend(
    const Classifier& model) {
  return make_backend(model, infer_backend_kind());
}

}  // namespace hmd::ml
