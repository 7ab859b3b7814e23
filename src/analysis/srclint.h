// hmd_srclint — the determinism contract as a machine-checkable source lint.
//
// The repo's core claim is bit-identical output at any thread count, under
// fault injection, and across checkpoint resume. That property holds only
// because every source of nondeterminism is funnelled through explicit,
// seeded machinery (support/rng.h) and because nothing iterates a container
// whose order depends on addresses or hashing. Runtime tests verify the
// property for today's code paths; this lint makes the *contract itself*
// enforceable at CI time, so a future PR cannot quietly introduce a
// wall-clock read or an unordered container feeding output.
//
// The rules (DESIGN.md §12 is the authoritative rationale table):
//
//   rng-construct        std::random_device / rand() / srand() / standard
//                        <random> engines anywhere but src/support/rng.h —
//                        all randomness flows from explicitly seeded Rng.
//   wall-clock           std::chrono::system_clock, time(), clock(),
//                        gettimeofday, localtime/gmtime outside the bench
//                        timing allowlist — results must not depend on when
//                        they were computed. (steady_clock is allowed: it
//                        is monotonic and only ever times work.)
//   unordered-container  std::unordered_{map,set,multimap,multiset} —
//                        hash-order iteration feeding any output is the
//                        classic silent nondeterminism; the tree has zero
//                        today and this rule locks that in.
//   pointer-key          std::{map,set,...} keyed on a pointer type —
//                        ordered by address, which varies run to run.
//   local-static         mutable function-local `static` in library code
//                        (src/) — hidden cross-call state breaks the "work
//                        unit i depends only on i" parallel contract.
//   env-read             getenv / secure_getenv outside src/support/
//                        parallel.cpp (HMD_THREADS) and src/ml/infer.cpp
//                        (HMD_INFER_BACKEND) — no new environment knob can
//                        come back unseen.
//
// A violation is silenced only by an inline comment on the same line (or a
// comment-only line immediately above):
//
//     // HMD_SRCLINT_ALLOW(wall-clock): sanctioned bench timing shim
//
// A suppression with an unknown rule id or a missing reason is itself an
// error. Suppressions are recognised only inside comments, so a string
// literal mentioning the marker (e.g. in this lint's own tests) is inert.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hmd::analysis {

/// One named rule of the determinism contract.
struct SrclintRule {
  std::string id;
  std::string bans;       ///< one-line summary of the banned construct
  std::string rationale;  ///< why it threatens determinism
};

/// The rule set, in report order. Stable ids — suppressions name them.
const std::vector<SrclintRule>& srclint_rules();

/// One banned construct found in a scanned file.
struct SrclintViolation {
  std::string file;  ///< '/'-separated path relative to the scan root
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string snippet;     ///< trimmed source line
  bool suppressed = false;
  std::string reason;  ///< allow-marker reason when suppressed
};

/// Scan result of a single file.
struct SrclintFileResult {
  std::vector<SrclintViolation> violations;  ///< in line order
  std::vector<std::string> errors;  ///< malformed/unknown suppressions
};

/// Scan one file's text. `rel_path` ('/'-separated, relative to the scan
/// root) drives the per-rule allowlists, so callers must pass tree-relative
/// paths, not absolute ones. Pure function of its arguments.
SrclintFileResult srclint_scan_source(std::string_view rel_path,
                                      std::string_view text);

/// Whole-tree scan result.
struct SrclintReport {
  std::vector<std::string> files;            ///< scanned, sorted
  std::vector<SrclintViolation> violations;  ///< file-major, line-ordered
  std::vector<std::string> errors;

  std::size_t unsuppressed() const;
  /// Zero unsuppressed violations and zero suppression errors.
  bool clean() const { return unsuppressed() == 0 && errors.empty(); }
};

/// Scan every .h/.hpp/.cc/.cpp under root/{src,bench,tools,tests,examples}
/// on `threads` workers (0 = auto), dogfooding support::parallel_map — the
/// file list is sorted and results are assembled in input order, so the
/// report is identical at any thread count.
SrclintReport srclint_scan_tree(const std::string& root,
                                std::size_t threads = 0);

/// Serialise a report in the LINT_src.json schema.
std::string srclint_report_json(const SrclintReport& report);

}  // namespace hmd::analysis
