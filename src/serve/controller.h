// Sharded controller/worker serving pipeline: fleet-scale run-time
// detection with cross-host batched inference.
//
// One OnlineDetector per host scores each interval alone — a batch of one
// — which wastes the flat inference engine's entire design (DESIGN §13:
// branch-free 8-lane walks want *rows*). The serving layer restores the
// batch dimension across hosts instead of across time: a single-threaded
// controller walks the virtual 10 ms tick clock, coalesces every pending
// host interval of a worker's shards into one row-major task per tick, and
// hands it to the worker, which scores the whole task in ONE
// predict_proba_batch call and then steps each host's OnlineState
// (core/online.h) with its score. Per-interval scalar scoring becomes
// cross-host batched scoring; the speedup is the bench's headline
// (bench/serve, BENCH_serve.json's measured.batched_speedup).
//
// Pipeline stages and roles:
//
//   controller (1 thread)  — per tick: token-bucket admission (explicit
//     shed accounting), drop simulation and assembly, visiting shards in
//     ascending order whatever the worker count; each shard's rows and
//     outcomes go to its owning worker's task. It binds the current model
//     epoch into each task and pushes one task per worker per tick to
//     that worker's BoundedQueue (backpressure: a full queue stalls the
//     controller, counted, never dropped). With drift detection on, it
//     drains the pipeline at each check and drives the refresh
//     (serve/drift.h).
//   workers (N threads)    — own a fixed partition of shards (shard
//     s -> worker s mod N): score the task (one batched call, or
//     row-by-row in the unbatched A/B mode), step the owned shards'
//     EWMA/alarm/staleness automata shard by shard in tick order, emit a
//     result chunk.
//   collector (1 thread)   — drains result chunks: latency accounting
//     (P^2 p50/p95/p99 per stage — serve/quantile.h) and a reorder buffer
//     keyed by tick. Once every worker's chunk of a tick has arrived it
//     scatters the tick into host order, folds it into the verdict hash
//     and, only when recording, appends it to the verdict stream. Ticks
//     complete in tick order, so no end-of-run sort is needed.
//
// Determinism contract (enforced by tests and the ci.sh serve leg): the
// verdict stream and every field of ServeCounters are bit-identical across
// worker counts and batched vs unbatched scoring, under a fixed seed.
// Everything decided on the virtual tick clock — admission, shed, drops,
// scores, alarm transitions, drift checks and the model swap — is
// deterministic; everything *measured* (stage latencies, backpressure
// stalls, throughput) lives in ServeTiming and is explicitly excluded from
// the contract. bench/serve mirrors the split: ServeCounters go to the
// "deterministic" block of BENCH_serve.json, ServeTiming to "measured".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/online.h"
#include "serve/drift.h"
#include "serve/fleet.h"
#include "serve/quantile.h"

namespace hmd::serve {

struct ServeConfig {
  /// Worker threads (scoring/stepping); 0 = auto via resolve_threads().
  /// Clamped to the shard count. The controller and collector threads are
  /// additional but never touch detector state or scores.
  std::size_t threads = 1;
  /// Host shards; 0 = auto: max(1, hosts / 32). The auto value depends
  /// only on the fleet, never on the worker count — shard boundaries are
  /// part of the deterministic domain.
  std::size_t shards = 0;
  /// Per-worker task queue depth, in tick tasks (one task carries all of
  /// a worker's shards for one tick). A full queue blocks the controller
  /// (backpressure); stalls are counted in ServeTiming.
  std::size_t queue_capacity = 8;
  /// true: one predict_proba_batch call per tick task (the point of the
  /// serving layer). false: the A/B baseline — identical pipeline, but
  /// each row scored with a batch-of-one call. Verdicts are bit-identical.
  bool batched = true;
  /// Token-bucket admission: samples admitted per tick across the fleet;
  /// 0 disables admission control entirely (everything emitted is scored).
  std::uint64_t admit_per_tick = 0;
  /// Bucket (burst) capacity; 0 means admit_per_tick.
  std::uint64_t admit_burst = 0;
  /// Keep the full verdict stream in the report (hosts × ticks entries).
  /// The verdict hash is computed either way; without recording, the
  /// collector holds only the few ticks still in flight.
  bool record_verdicts = true;
  core::OnlineConfig online{};
  /// Concept-drift detection over the score stream (serve/drift.h).
  /// Disabled by default, which leaves the pipeline byte-identical to the
  /// pre-drift build. When enabled, every check_interval ticks the
  /// controller drains the pipeline (a barrier) and evaluates the
  /// detector; all of it stays in the deterministic domain.
  DriftDetectorConfig drift{};
  /// What to do when the drift trigger fires: harvest flagged windows,
  /// retrain on a background worker, hot-swap at a fixed virtual tick.
  RefreshConfig refresh{};
};

/// How one (host, tick) sample left the pipeline.
enum class SampleOutcome : std::uint8_t {
  kScored = 0,   ///< admitted and scored
  kMissing = 1,  ///< collector dropped the sample (fleet drop_rate)
  kShed = 2,     ///< admission control rejected it (token bucket empty)
};

/// One per-(host, tick) verdict. Missing/shed samples still produce a
/// verdict — the held EWMA/alarm state via OnlineState::step_missing.
struct ServeVerdict {
  std::uint32_t tick = 0;
  std::uint32_t host = 0;
  double score = 0.0;  ///< per-sample P(malware); held value when not scored
  double ewma = 0.0;
  SampleOutcome outcome = SampleOutcome::kScored;
  bool alarm = false;
  bool stale = false;
};

/// Deterministic domain: bit-identical across worker counts and batched vs
/// unbatched scoring (fixed seed). The ci.sh serve leg compares them, as
/// BENCH_serve.json's deterministic block, across thread counts.
struct ServeCounters {
  std::uint64_t hosts = 0;
  std::uint64_t ticks = 0;
  std::uint64_t shards = 0;
  std::uint64_t offered = 0;    ///< hosts × ticks
  std::uint64_t missing = 0;    ///< lost by the collector (drop_rate)
  std::uint64_t emitted = 0;    ///< offered - missing
  std::uint64_t admitted = 0;   ///< emitted samples the bucket admitted
  std::uint64_t shed = 0;       ///< emitted samples rejected by admission
  std::uint64_t batches = 0;    ///< one per (tick, shard)
  std::uint64_t scored_rows = 0;        ///< == admitted
  // Always 0: straggler injection and hedging are gone, but
  // perfbench/harness.h's counter_fields still names these two fields.
  std::uint64_t straggler_batches = 0;
  std::uint64_t hedges_launched = 0;
  std::uint64_t alarms_raised = 0;   ///< false->true alarm transitions
  std::uint64_t alarmed_hosts = 0;   ///< hosts whose alarm ever raised
  std::uint64_t malware_hosts = 0;   ///< ground truth from the fleet
  std::uint64_t campaign_hosts = 0;  ///< drift-wave recruits (ground truth)
  // Drift / refresh accounting. All deterministic: the trigger is a pure
  // function of the score stream, the swap tick a pure function of the
  // trigger, and the retrain row counts a pure function of the harvest.
  std::uint64_t drift_checks = 0;    ///< barrier evaluations performed
  std::uint64_t drift_triggers = 0;  ///< checks on which the trigger held
  std::uint64_t drift_trigger_tick = 0;   ///< first trigger (0 = none)
  std::uint64_t drift_tripped_shards = 0; ///< shards tripped at 1st trigger
  std::uint64_t model_swaps = 0;          ///< hot-swaps performed (0 or 1)
  std::uint64_t model_swap_tick = 0;      ///< tick of the swap (0 = none)
  std::uint64_t retrain_base_rows = 0;    ///< base split rows in the refit
  std::uint64_t retrain_window_rows = 0;  ///< harvested rows in the refit
  std::uint64_t final_model_epoch = 0;    ///< epoch serving the last tick
  std::uint64_t verdict_hash = 0;    ///< FNV-1a over the (tick, host) stream
};

/// Measured domain: wall-clock throughput and per-stage latency. Varies
/// run to run and across thread counts by nature; never part of the
/// determinism contract.
struct ServeTiming {
  double wall_ms = 0.0;
  double intervals_per_sec = 0.0;  ///< offered / wall seconds
  LatencyStats gen;    ///< per tick: emit + admission + tick assembly
  LatencyStats queue;  ///< per task: wait in the worker queue
  LatencyStats score;  ///< per task: scoring its rows
  LatencyStats step;   ///< per task: per-host state stepping + verdict emit
  LatencyStats e2e;    ///< per task: tick assembly start -> verdicts emitted
  std::uint64_t backpressure_stalls = 0;  ///< pushes that met a full queue
  double retrain_ms = 0.0;    ///< background retrain wall time
  double swap_wait_ms = 0.0;  ///< controller blocked at the swap tick
  double barrier_ms = 0.0;    ///< total pipeline-drain wait at drift checks
};

struct ServeReport {
  ServeCounters counters;
  ServeTiming timing;
  /// Sorted by (tick, host); empty unless ServeConfig::record_verdicts.
  std::vector<ServeVerdict> verdicts;
  /// The model the drift retrain produced, whether or not its swap tick
  /// fell inside the run; null when no retrain ran.
  std::shared_ptr<const ml::Classifier> refit_model;
};

/// Drive the fleet through the serving pipeline. The FleetSetup is shared
/// read-only across all workers; per-host detector state lives inside the
/// call. Deterministic per the contract above.
ServeReport run_fleet(const FleetSetup& fleet, const ServeConfig& cfg);

/// FNV-1a 64 over the canonical byte serialisation of a (tick, host)-sorted
/// verdict stream — the cross-thread-count identity witness.
std::uint64_t verdict_stream_hash(const std::vector<ServeVerdict>& verdicts);

/// Fleet accuracy over the tick window [begin_tick, end_tick): the
/// fraction of verdicts whose alarm state matches ground truth
/// (host_infected) at that tick. The drift bench's pre-onset /
/// post-onset / post-refresh phase metric. Returns 0 on an empty window.
double verdict_window_accuracy(const FleetSetup& fleet,
                               const std::vector<ServeVerdict>& verdicts,
                               std::uint32_t begin_tick,
                               std::uint32_t end_tick);

}  // namespace hmd::serve
