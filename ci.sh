#!/usr/bin/env bash
# CI entry point: the tier-1 verification run three times, plus
# fault-injection and checkpoint/resume legs.
#
#   1. Release, warnings-as-errors — the production configuration must
#      compile warning-clean under -Wall -Wextra -Wshadow -Wconversion
#      -Wdouble-promotion -Wold-style-cast. HlsRun (the generated HLS C,
#      compiled and run on probes) must then run, not skip (1a). A
#      full-size bench/drift run must reproduce every deterministic field
#      of the committed BENCH_drift.json (1h).
#   2. Debug, AddressSanitizer + UndefinedBehaviorSanitizer — the full
#      ctest suite must pass with zero sanitizer reports. Recovery is
#      disabled at compile time (-fno-sanitize-recover=all) and
#      halt_on_error is set here, so any report fails the suite.
#   3. Debug, ThreadSanitizer with HMD_THREADS=4 — forces the capture and
#      grid paths onto 4 workers even where a test does not ask for
#      parallelism, so every data race in the deterministic parallel layer
#      is a ctest failure.
#   4. Fault-injection leg (reuses the ASan/UBSan tree): the fault-sweep
#      ablation under the heavy profile must quarantine rather than crash,
#      and hmd_lint over a lightly-faulted capture must keep the
#      quarantine/imputation budgets — both with sanitizers watching the
#      error-handling paths that a clean run never executes.
#   5. Checkpoint/resume leg (reuses the Release tree): a checkpointed
#      heavy-fault campaign is "killed" (one app checkpoint plus the
#      quarantined set deleted) and resumed; the resumed fig3 table must be
#      byte-identical to an uninterrupted run's.
#   5b. Adversarial leg (3c): the attack/defence sweep runs under
#      ASan/UBSan with attacked accuracy <= clean accuracy asserted per
#      cell, and the Release-tree report must be byte-identical at 1 and 4
#      threads.
#   6. Inference legs (1c2-1c3): the scalar-vs-flat inference benchmark
#      must report bit-identical scores in every grid cell, with every
#      tree/rule cell on the flat engine and every other cell on the
#      generic fallback, and the fig3 table must be byte-identical
#      whichever backend scores it.
#   7. Static-analysis legs (1d-1f): hmd_srclint must report zero
#      unsuppressed determinism violations over the tree; clang-tidy and a
#      clang -Wthread-safety build run when those tools are installed and
#      skip loudly when not (the default container is gcc-only).
#   8. Serving leg (5): bench/serve --quick runs under TSan (the
#      controller/worker/collector pipeline is the most lock-dense code in
#      the tree), then the Release tree proves the determinism contract —
#      1-, 3- and 4-thread verdict streams byte-identical (3 workers do
#      not divide the 8 quick shards), per-run counters JSON-identical,
#      and batched scoring at least as fast as unbatched.
#   8b. Benchmark leg (1g, Release): the repository benchmark's harness
#      (perfbench/) builds into .bench_build, its arithmetic tests pass,
#      and one short fleet_drift and one short fleet_steady run must each
#      report correct: true with zero failed operations — the
#      setup-repeat and verdict-hash checks.
#   9. Drift leg (6): bench/drift --quick runs the drift-aware refresh
#      pipeline under ASan/UBSan (harvest, background retrain, hot-swap)
#      with the detection/recovery assertions checked from the JSON, and
#      again under TSan (the retrain fans bag members out on its own pool
#      while serving reads); the
#      Release tree then proves the hot-swap determinism contract (1- and
#      4-thread adaptive verdict streams byte-identical) and that a
#      checkpointed retrain killed mid-capture resumes to a byte-identical
#      verdict stream.
#
# Each build uses its own tree; pass -j via CMAKE_BUILD_PARALLEL_LEVEL
# or JOBS (default: all cores).
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

echo "=== [1/4] Release + HMD_WARNINGS_AS_ERRORS=ON ==="
cmake -B build-ci-release -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DHMD_WARNINGS_AS_ERRORS=ON
cmake --build build-ci-release -j "${JOBS}"
(cd build-ci-release && ctest --output-on-failure -j "${JOBS}")

echo "=== [1a] HlsRun: the emitted HLS C must run, not skip ==="
# HlsRun skips without a C compiler; this image has one, so a skip here
# would hide a broken test. Zero tests run fails the leg as well.
./build-ci-release/tests/hmd_tests --gtest_filter='HlsRun.*' \
  | tee build-ci-release/hls-run.txt
if grep -q 'SKIPPED' build-ci-release/hls-run.txt ||
   ! grep -qE '^\[  PASSED  \] [1-9][0-9]* tests?\.' \
     build-ci-release/hls-run.txt; then
  echo "HlsRun skipped or ran no tests" >&2
  exit 1
fi

echo "=== [1b] hmd_lint: analyzers over the experiment grid (quick) ==="
# Serving budgets ride along: a small overloaded fleet must keep its e2e
# p99 and shed rate under (generous) limits, or the lint exits non-zero.
# Drift budgets likewise: a fleet with a mid-run novel-family campaign must
# trigger, refresh, and recover within the lag/recovery budgets.
./build-ci-release/tools/hmd_lint --quick --max-train-ms 5000 \
  --max-p99-us 500000 --max-shed-rate 0.5 \
  --max-drift-lag 64 --min-refresh-recovery 0.5

echo "=== [1c] micro_ml: training benchmark (quick) ==="
(cd build-ci-release && ./bench/micro_ml --quick --reps 1)
# Require a well-formed report: all 24 cells, each with a positive training
# time and throughput.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-release/BENCH_train.json") as f:
    report = json.load(f)
assert report["bench"] == "micro_ml", report
assert len(report["cells"]) == 24, f"expected 24 cells, got {len(report['cells'])}"
for cell in report["cells"]:
    assert cell["train_ms"] > 0 and cell["rows_per_sec"] > 0, cell
    assert cell["predict_us_per_sample"] >= 0, cell
print(f"BENCH_train.json OK: {len(report['cells'])} cells, "
      f"{report['train_rows']} training rows")
EOF
else
  grep -q '"bench": "micro_ml"' build-ci-release/BENCH_train.json
  grep -q '"rows_per_sec"' build-ci-release/BENCH_train.json
  echo "BENCH_train.json OK (grep fallback)"
fi

echo "=== [1c2] micro_infer: inference benchmark, scalar vs flat (quick) ==="
(cd build-ci-release && ./bench/micro_infer --quick --reps 1)
# The benchmark exits non-zero if any backend pair disagrees; also require
# a well-formed report where every cell's scores matched bitwise and every
# cell ran on the engine its family lowers to: J48, REPTree, JRip and OneR
# (alone, boosted, bagged) on flat, the rest on generic. A lowering that
# silently fell back to generic would still match scores.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-release/BENCH_infer.json") as f:
    report = json.load(f)
assert report["bench"] == "micro_infer", report
assert report["all_scores_match"] is True, "scalar/flat scores diverge"
assert len(report["cells"]) == 24, f"expected 24 cells, got {len(report['cells'])}"
assert all(c["score_match"] for c in report["cells"]), report["cells"]
flat_families = {"J48", "REPTree", "JRip", "OneR"}
for c in report["cells"]:
    want = "flat" if c["classifier"] in flat_families else "generic"
    assert c["backend"] == want, (
        f'{c["ensemble"]} {c["classifier"]}: backend {c["backend"]}, '
        f'expected {want}')
assert report["tree_ensemble_speedup"] > 0, report["tree_ensemble_speedup"]
print(f"BENCH_infer.json OK: tree-ensemble speedup "
      f"{report['tree_ensemble_speedup']:.2f}x")
EOF
else
  grep -q '"bench": "micro_infer"' build-ci-release/BENCH_infer.json
  grep -q '"all_scores_match": true' build-ci-release/BENCH_infer.json
  grep -q '"tree_ensemble_speedup"' build-ci-release/BENCH_infer.json
  test "$(grep -cE '"classifier": "(J48|REPTree|JRip|OneR)",[^}]*"backend": "flat"' \
    build-ci-release/BENCH_infer.json)" -eq 12
  test "$(grep -cE '"classifier": "(BayesNet|MLP|SGD|SMO)",[^}]*"backend": "generic"' \
    build-ci-release/BENCH_infer.json)" -eq 12
  echo "BENCH_infer.json OK (grep fallback)"
fi

echo "=== [1c3] fig3 table must be byte-identical across inference backends ==="
# The paper tables are produced through the process-wide backend selection;
# the flat engine's bit-identity contract means the artifact bytes cannot
# depend on which backend scored them.
(
  cd build-ci-release
  rm -f fig3-backend-scalar.txt fig3-backend-flat.txt
  ./bench/fig3_accuracy --quick --backend scalar > fig3-backend-scalar.txt
  ./bench/fig3_accuracy --quick --backend flat > fig3-backend-flat.txt
  diff fig3-backend-scalar.txt fig3-backend-flat.txt
  echo "fig3 OK: scalar and flat backends produce byte-identical tables"
)

echo "=== [1d] hmd_srclint: determinism/concurrency source lint ==="
# The lint must exit 0 (the tree is clean modulo inline allows) and the
# report must be well-formed: zero unsuppressed violations, a non-empty
# file set, and the full rule table present.
./build-ci-release/tools/hmd_srclint --root . \
  --out build-ci-release/LINT_src.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-release/LINT_src.json") as f:
    report = json.load(f)
assert report["tool"] == "hmd_srclint", report
assert report["unsuppressed_total"] == 0, report["violations"]
assert report["files_scanned"] > 0, "lint scanned no files"
assert len(report["rules"]) == 6, f"expected 6 rules, got {len(report['rules'])}"
assert report["errors"] == [], report["errors"]
print(f"LINT_src.json OK: {report['files_scanned']} files clean "
      f"under {len(report['rules'])} rules")
EOF
else
  grep -q '"tool": "hmd_srclint"' build-ci-release/LINT_src.json
  grep -q '"unsuppressed_total": 0' build-ci-release/LINT_src.json
  echo "LINT_src.json OK (grep fallback)"
fi

echo "=== [1e] clang-tidy (skipped unless clang-tidy is installed) ==="
# bugprone-* and clang-analyzer-* hits are errors (.clang-tidy
# WarningsAsErrors); the compilation database comes from the Release tree,
# which always exports it.
if command -v clang-tidy >/dev/null 2>&1 && command -v python3 >/dev/null 2>&1
then
  python3 - <<'EOF'
import json, subprocess, sys
with open("build-ci-release/compile_commands.json") as f:
    entries = json.load(f)
files = sorted({e["file"] for e in entries
                if "/_deps/" not in e["file"] and "/tsa_checks/" not in e["file"]})
failed = []
for path in files:
    proc = subprocess.run(
        ["clang-tidy", "-p", "build-ci-release", "--quiet", path],
        capture_output=True, text=True)
    if proc.returncode != 0:
        failed.append(path)
        sys.stderr.write(proc.stdout + proc.stderr)
print(f"clang-tidy: {len(files)} TUs, {len(failed)} failed")
sys.exit(1 if failed else 0)
EOF
else
  echo "clang-tidy or python3 not installed; skipping tidy leg"
fi

echo "=== [1f] clang thread-safety analysis (skipped unless clang++ exists) ==="
# Rebuilds the library targets under clang with -Wthread-safety promoted to
# an error (cmake/ThreadSafety.cmake), plus the configure-time probes that
# prove the annotations reject unlocked guarded access.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-ci-tsa -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DHMD_WARNINGS_AS_ERRORS=ON
  cmake --build build-ci-tsa -j "${JOBS}"
  (cd build-ci-tsa && ctest --output-on-failure -j "${JOBS}")
else
  echo "clang++ not installed; skipping thread-safety leg"
fi

echo "=== [1g] perfbench: harness tests + short fleet_drift/fleet_steady runs ==="
# The benchmark checks its own outputs (setup repeats agree, verdict hashes
# agree across passes); a run that fails them reports correct: false.
cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release
cmake --build .bench_build --target perfbench perfbench_tests -j "${JOBS}"
./.bench_build/perfbench_tests
for workload in fleet_drift fleet_steady; do
  python3 perfbench/run.py --workload "${workload}" --seed 1 --seconds 1 \
    --trace 0 > ".bench_build/ci-${workload}.txt"
  WORKLOAD="${workload}" python3 - <<'EOF'
import json, os
workload = os.environ["WORKLOAD"]
with open(f".bench_build/ci-{workload}.txt") as f:
    last = f.read().strip().splitlines()[-1]
result = json.loads(last)
assert result["correct"] is True, result
assert result["failed"] == 0, result
print(f"perfbench OK: {workload} correct, {result['attempted']} operations, "
      f"0 failed")
EOF
done

echo "=== [1h] full-size drift run must match the committed BENCH_drift.json ==="
# The committed report comes from `bench/drift --threads 1`. Its times are
# measurements, but both verdict hashes, the detection block and the
# refresh's swap tick and row counts are pure functions of the seed and
# the code: a change that moves any of them changed the refit's model or
# the serving path, not just its speed.
./build-ci-release/bench/drift --threads 1 \
  --out build-ci-release/drift-full.json > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("BENCH_drift.json") as f:
    want = json.load(f)
with open("build-ci-release/drift-full.json") as f:
    got = json.load(f)
for key in ("adaptive_verdict_hash", "frozen_verdict_hash", "detection"):
    assert got[key] == want[key], (key, got[key], want[key])
for key in ("swap_tick", "base_rows", "window_rows"):
    assert got["refresh"][key] == want["refresh"][key], (
        key, got["refresh"][key], want["refresh"][key])
print(f"drift OK: full-size run matches BENCH_drift.json "
      f"(adaptive {got['adaptive_verdict_hash']}, "
      f"swap tick {got['refresh']['swap_tick']})")
EOF
else
  for pattern in '"adaptive_verdict_hash": "[0-9a-f]*"' \
    '"frozen_verdict_hash": "[0-9a-f]*"' '"detection": {[^}]*}' \
    '"swap_tick": [0-9]*' '"base_rows": [0-9]*' '"window_rows": [0-9]*'; do
    test "$(grep -o "${pattern}" BENCH_drift.json)" = \
      "$(grep -o "${pattern}" build-ci-release/drift-full.json)"
  done
  echo "drift OK: full-size run matches BENCH_drift.json (grep fallback)"
fi

echo "=== [2/4] Debug + HMD_SANITIZE=address;undefined ==="
cmake -B build-ci-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DHMD_SANITIZE="address;undefined"
cmake --build build-ci-asan -j "${JOBS}"
(cd build-ci-asan && \
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --output-on-failure -j "${JOBS}")

echo "=== [3/4] fault injection under ASan/UBSan: heavy sweep + lint budgets ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-ci-asan/bench/ablation_faults --quick --faults heavy
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-ci-asan/tools/hmd_lint --quick --faults light

echo "=== [3b] checkpoint/resume: killed campaign must resume byte-identically ==="
# An uninterrupted heavy-fault run is the reference; a checkpointed run of
# the same campaign is then "killed" (one completed app's checkpoint plus
# every quarantined app's checkpoint deleted) and resumed. The resumed
# fig3 table must be byte-identical to the uninterrupted one, and the
# resume banner must show reused apps.
CKPT_DIR="ckpt-ci"
(
  cd build-ci-release
  rm -rf "${CKPT_DIR}" fig3-uninterrupted.txt fig3-resumed.txt resume-log.txt
  ./bench/fig3_accuracy --quick --faults heavy --threads 2 \
    > fig3-uninterrupted.txt
  ./bench/fig3_accuracy --quick --faults heavy --threads 2 \
    --checkpoint "${CKPT_DIR}" > /dev/null
  rm -f "${CKPT_DIR}/app_00000.ckpt"
  grep -l '^quarantined 1$' "${CKPT_DIR}"/app_*.ckpt | xargs -r rm -f
  ./bench/fig3_accuracy --quick --faults heavy --threads 2 \
    --checkpoint "${CKPT_DIR}" --resume \
    > fig3-resumed.txt 2> resume-log.txt
  grep -q 'apps reused' resume-log.txt
  diff fig3-uninterrupted.txt fig3-resumed.txt
  echo "checkpoint/resume OK: resumed fig3 table is byte-identical"
)

echo "=== [3c] adversarial robustness: attack sweep under ASan/UBSan ==="
# The evasion search, retraining, and margin-gate paths run hot loops the
# clean suite only covers at unit scale; the quick sweep must finish with
# zero sanitizer reports and a well-formed report in which no cell's
# attacked accuracy exceeds its clean accuracy (the search only ever
# accepts score decreases, so a regression here is a determinism or
# projection bug, not noise).
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-ci-asan/bench/ablation_adversarial --quick \
    --out build-ci-asan/BENCH_adversarial.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-asan/BENCH_adversarial.json") as f:
    report = json.load(f)
assert report["bench"] == "ablation_adversarial", report
assert len(report["budgets"]) == 3, f"expected 3 budgets, got {len(report['budgets'])}"
cells = 0
for budget in report["budgets"]:
    for cell in budget["cells"]:
        cells += 1
        assert cell["attacked_accuracy"] <= cell["clean_accuracy"] + 1e-12, (
            budget["max_rel_delta"], cell)
        assert 0.0 <= cell["evasion_rate"] <= 1.0, cell
assert cells > 0, "report has no cells"
print(f"BENCH_adversarial.json OK: attacked <= clean in all {cells} cells")
EOF
else
  grep -q '"bench": "ablation_adversarial"' build-ci-asan/BENCH_adversarial.json
  echo "BENCH_adversarial.json OK (grep fallback)"
fi
# Determinism of the full sweep (Release tree): the same seed must produce
# byte-identical reports at 1 and 4 threads.
(
  cd build-ci-release
  rm -f adv-t1.json adv-t4.json
  ./bench/ablation_adversarial --quick --threads 1 --out adv-t1.json \
    > /dev/null 2>&1
  ./bench/ablation_adversarial --quick --threads 4 --out adv-t4.json \
    > /dev/null 2>&1
  diff adv-t1.json adv-t4.json
  echo "ablation_adversarial OK: 1-thread and 4-thread reports byte-identical"
)

echo "=== [4/4] Debug + HMD_SANITIZE=thread, HMD_THREADS=4 ==="
cmake -B build-ci-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DHMD_SANITIZE=thread
cmake --build build-ci-tsan -j "${JOBS}"
(cd build-ci-tsan && \
  HMD_THREADS=4 \
  TSAN_OPTIONS="halt_on_error=1" \
  ctest --output-on-failure -j "${JOBS}")

echo "=== [5] serving pipeline: TSan quick run + determinism contract ==="
# The sharded controller/worker/collector pipeline under TSan: every lock
# and queue hand-off race-checked on a small fleet.
TSAN_OPTIONS="halt_on_error=1" \
  ./build-ci-tsan/bench/serve --quick --hosts 96 --duration-ms 300 \
    --threads 4 --out build-ci-tsan/BENCH_serve.json
# Determinism contract (Release tree): verdict streams byte-identical and
# counters JSON-identical across worker counts, under a fixed seed. 3
# workers own unequal shard sets of the 8 quick shards, so a tick's
# assembly order cannot hide behind an even split.
(
  cd build-ci-release
  for t in 1 3 4; do
    rm -f "serve-t${t}.json" "serve-verdicts-t${t}.txt"
    ./bench/serve --quick --threads "${t}" \
      --out "serve-t${t}.json" --verdicts "serve-verdicts-t${t}.txt"
  done
  diff serve-verdicts-t1.txt serve-verdicts-t3.txt
  diff serve-verdicts-t1.txt serve-verdicts-t4.txt
  echo "serve OK: 1-, 3- and 4-thread verdict streams byte-identical"
)
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-release/serve-t1.json") as f:
    t1 = json.load(f)
with open("build-ci-release/serve-t3.json") as f:
    t3 = json.load(f)
with open("build-ci-release/serve-t4.json") as f:
    t4 = json.load(f)
assert t1["bench"] == "serve", t1
assert t1["verdicts_match"] is True, "batched/unbatched verdicts diverge"
assert t1["batched_speedup"] >= 1.0, t1["batched_speedup"]
for run in ("batched", "unbatched", "overloaded"):
    for other in (t3, t4):
        assert t1[run]["counters"] == other[run]["counters"], (
            run, t1[run]["counters"], other[run]["counters"])
over = t1["overloaded"]["counters"]
assert over["shed"] > 0, "overloaded run shed nothing"
assert over["admitted"] + over["shed"] == over["emitted"], over
print(f"BENCH serve OK: batched speedup {t1['batched_speedup']:.2f}x, "
      f"counters identical across thread counts")
EOF
else
  grep -q '"bench": "serve"' build-ci-release/serve-t1.json
  grep -q '"verdicts_match": true' build-ci-release/serve-t1.json
  echo "serve JSON OK (grep fallback)"
fi

echo "=== [6] drift refresh: ASan quick run + hot-swap determinism + resume ==="
# The drift-aware refresh path (score-window bookkeeping, harvest,
# background retrain thread, epoch'd hot-swap) under ASan/UBSan on a small
# fleet with a mid-run campaign; the run itself exits non-zero unless the
# detector fired and the swap landed.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ./build-ci-asan/bench/drift --quick --out build-ci-asan/BENCH_drift.json
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'EOF'
import json
with open("build-ci-asan/BENCH_drift.json") as f:
    report = json.load(f)
assert report["bench"] == "drift", report
det, ref, acc = report["detection"], report["refresh"], report["accuracy"]
assert det["triggers"] > 0, "drift detector never fired"
assert ref["swapped"] is True, "model hot-swap never happened"
assert 0 < det["detection_lag_ticks"] <= 64, det
assert ref["window_rows"] > 0, ref
assert acc["recovery_fraction"] >= 0.5, acc
assert acc["post_refresh"] > acc["frozen_tail"], acc
print(f"BENCH_drift.json OK: lag {det['detection_lag_ticks']} ticks, "
      f"recovery {acc['recovery_fraction']:.2f}")
EOF
else
  grep -q '"bench": "drift"' build-ci-asan/BENCH_drift.json
  grep -q '"swapped": true' build-ci-asan/BENCH_drift.json
  echo "BENCH_drift.json OK (grep fallback)"
fi
# The same run under TSan: the retrain is a nested pool job whose bag
# members train on several threads while the serving workers score.
TSAN_OPTIONS="halt_on_error=1" \
  ./build-ci-tsan/bench/drift --quick --threads 4 \
    --out build-ci-tsan/BENCH_drift.json
# Hot-swap determinism contract (Release tree): the adaptive verdict
# stream — including every verdict scored by the refreshed model after the
# swap — must be byte-identical at 1 and 4 worker threads.
(
  cd build-ci-release
  rm -rf drift-ckpt drift-t1.json drift-t4.json drift-verdicts-t1.txt \
    drift-verdicts-t4.txt drift-verdicts-ckpt.txt drift-verdicts-resumed.txt
  ./bench/drift --quick --threads 1 --out drift-t1.json \
    --verdicts drift-verdicts-t1.txt
  ./bench/drift --quick --threads 4 --out drift-t4.json \
    --verdicts drift-verdicts-t4.txt
  diff drift-verdicts-t1.txt drift-verdicts-t4.txt
  echo "drift OK: 1- and 4-thread adaptive verdict streams byte-identical"
  # Kill-and-resume through the retrain: a checkpointed run re-captures the
  # base split under a checkpoint store; "killing" it (deleting one app's
  # checkpoint) and rerunning must auto-resume to the same retrained model,
  # i.e. a verdict stream byte-identical to both the first checkpointed run
  # and the uncheckpointed cached-split run.
  ./bench/drift --quick --threads 4 --checkpoint-dir drift-ckpt \
    --out drift-ckpt.json --verdicts drift-verdicts-ckpt.txt
  rm -f drift-ckpt/app_00000.ckpt
  ./bench/drift --quick --threads 4 --checkpoint-dir drift-ckpt \
    --out drift-resumed.json --verdicts drift-verdicts-resumed.txt
  diff drift-verdicts-ckpt.txt drift-verdicts-resumed.txt
  diff drift-verdicts-t4.txt drift-verdicts-ckpt.txt
  echo "drift OK: killed checkpointed retrain resumed byte-identically"
)

echo "=== CI OK ==="
