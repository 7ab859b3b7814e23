// Batched inference engine behind a one-API/many-backends abstraction.
//
// Training became columnar (DESIGN §9); this module does the same for
// *prediction* — the path every deployed detector and every grid
// evaluation sits on. A trained model's IR (ml/model_ir.h, the one
// structural view of a trained model) is lowered once into contiguous
// "flat" form — packed 16-byte tree nodes with a parallel
// leaf-probability array, rule lists compiled into a DAG over the same
// node form (each conjunct's pass edge continues the conjunction, its
// fail edge jumps to the next rule's entry), ensemble members as
// offset+weight records — and whole batches of intervals are scored per
// call with branch-free inner loops (the per-node child select is an
// indexed load, never a data-dependent branch, and samples walk eight
// at a time so independent load chains overlap in the pipeline). Full
// layout and measured numbers: DESIGN §13.
//
// Backends (the AbstractGfxLayer pattern: one API, several engines):
//
//   scalar  — the reference: loops Classifier::predict_proba row by row
//             over the pointer-linked model, exactly the pre-existing
//             behaviour. Every other backend is differentially tested
//             bit-identical against it.
//   flat    — the flattened branch-free batch engine, lowered from the
//             model's IR. Supported for the tree/rule structures (J48,
//             REPTree, RandomTree, JRip, OneR) and AdaBoost/Bagging/
//             RandomForest ensembles of them.
//   generic — the automatic fallback when `flat` is requested for a model
//             with no flat lowering (BayesNet, MLP, SGD, SMO and ensembles
//             of them): same batch API, scalar predict_proba inside, so
//             callers can pin "flat" process-wide without special-casing.
//   fixed   — bit-simulation of the HLS Q-format decision function; lives
//             in src/analysis (analysis::FixedPointBackend) beside the
//             fixed-point arithmetic it replays, and gives the differential
//             lint a fast software oracle.
//
// Determinism contract: for any model, any backend returned by
// make_backend() produces bit-identical probabilities to the scalar
// reference, for any batch size and any thread count — the flat engine
// replays the exact double-precision comparisons and accumulation order of
// the scalar walk, it only schedules them branch-free. bench/micro_infer
// enforces this on every grid cell and exits non-zero on any mismatch.
//
// Thread safety: a backend is immutable after construction; concurrent
// predict_proba_batch() calls from different threads are safe (scratch
// state is call-local). Scalar/generic backends hold a reference to the
// model, which must outlive them; the flat backend is self-contained.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ml/classifier.h"
#include "ml/dataset.h"

namespace hmd::ml {

/// Which inference engine services batch scoring.
enum class InferBackendKind {
  kScalar,  ///< reference pointer-walk, one row at a time
  kFlat,    ///< flattened branch-free batch engine (generic fallback)
};

/// Process-wide backend selection: HMD_INFER_BACKEND=scalar|flat, default
/// flat. set_infer_backend_kind overrides the environment (bench --backend
/// flag, tests). Both backends are bit-identical, so this is a performance
/// switch, never a results switch.
InferBackendKind infer_backend_kind();
void set_infer_backend_kind(InferBackendKind kind);

/// Parse a --backend flag value ("scalar" | "flat"); nullopt if unknown.
std::optional<InferBackendKind> backend_kind_from_name(std::string_view name);
std::string_view backend_kind_name(InferBackendKind kind);

/// One inference engine for one trained model.
class InferenceBackend {
 public:
  virtual ~InferenceBackend() = default;

  /// Engine actually in use: "scalar", "flat", or "generic" (the scalar
  /// fallback behind a kFlat request the model cannot flatten).
  virtual std::string_view name() const = 0;

  /// Score `out.size()` samples stored row-major in `x`, `num_features`
  /// doubles each (x.size() == out.size() * num_features);
  /// out[i] = P(malware | row i). An empty batch is a no-op.
  virtual void predict_proba_batch(std::span<const double> x,
                                   std::size_t num_features,
                                   std::span<double> out) const = 0;

  /// Score every row of `data` (gathering non-contiguous views first).
  void predict_proba_batch(const Dataset& data, std::span<double> out) const;
  std::vector<double> predict_proba_batch(const Dataset& data) const;

  /// Single-sample convenience (a batch of one): the run-time detector's
  /// per-interval path.
  double predict_proba(std::span<const double> x) const;
};

/// Build an inference backend for a trained model. kFlat lowers the
/// model's trained_structure() (ml/model_ir.h); a model without a flat
/// lowering — no structure (untrained, PlattScaling), a structure outside
/// the tree/rule families, or a member past the u16 node encoding — gets
/// the generic fallback (same API, scalar inside) rather than failing, so
/// callers can pin the backend process-wide. Scalar/generic backends
/// reference `model`; it must outlive them.
std::unique_ptr<InferenceBackend> make_backend(const Classifier& model,
                                               InferBackendKind kind);

/// Backend for the process-wide kind (the grid hot path's one-liner).
std::unique_ptr<InferenceBackend> make_active_backend(const Classifier& model);

}  // namespace hmd::ml
