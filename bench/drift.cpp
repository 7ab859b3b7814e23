// Concept-drift bench: detection lag and accuracy recovery of the
// drift-aware model refresh under a time-evolving fleet.
//
// Builds a fleet whose workload SHIFTS mid-run (serve/fleet.h drift
// config): the last four malware behaviour templates are held out of both
// training corpora entirely, and at the campaign onset (tick ticks/2) a
// hash-selected quarter of the benign hosts starts running one of those
// novel families, staggered over a few ticks, while the remaining benign
// hosts' counters drift upward by a ramped scale factor. The deployed
// model has never seen any of it.
//
// Two serving runs over the identical workload:
//
//   frozen   — drift detection on, refresh OFF: the paper's static model.
//              Measures how far accuracy erodes and stays eroded.
//   adaptive — the full loop: Page-Hinkley + tail-gate trigger, window
//              harvest labelled by analyst triage, background retrain
//              (ml/refit.h), hot-swap at trigger + refresh_lag ticks.
//
// BENCH_drift.json's "deterministic" block reports the phase accuracies
// (pre-onset, post-onset, post-refresh tail for both runs), the detection
// lag in ticks, the recovery fraction (how much of the erosion the refresh
// won back), the harvested rows and both verdict hashes; its "measured"
// block the refresh cost (retrain wall-clock, swap wait, barriers). The
// bench exits 1 if the trigger never fires or the swap never lands —
// detection and refresh are the contract, not best-effort.
//
// Flags (beyond the shared --quick/--seed/--threads/--backend set):
//   --hosts N           fleet size          (default 600; 160 in --quick)
//   --duration-ms N     virtual run length  (default 3000; 2000 in --quick)
//   --out P             JSON output path    (default BENCH_drift.json)
//   --verdicts P        dump the adaptive run's verdict stream as text
//                       (byte-diffable across --threads, straight through
//                       the mid-run hot-swap)
//   --checkpoint-dir P  retrain re-captures the training split under this
//                       checkpoint store (kill-and-resume safe; the ci.sh
//                       drift leg kills a retrain mid-capture and diffs)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/controller.h"
#include "serve/fleet.h"

int main(int argc, char** argv) {
  using namespace hmd;
  const core::ExperimentConfig exp = benchutil::config_from_args(argc, argv);
  const benchutil::ServeArgs args = benchutil::serve_args(argc, argv);
  bool quick = false;
  const char* verdict_path = nullptr;
  const char* checkpoint_dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--verdicts") == 0)
      verdict_path = benchutil::flag_value("--verdicts", argc, argv, i);
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0)
      checkpoint_dir =
          benchutil::flag_value("--checkpoint-dir", argc, argv, i);
  }
  const char* out_path = args.out != nullptr ? args.out : "BENCH_drift.json";

  serve::FleetConfig fc;
  fc.hosts = args.hosts > 0 ? args.hosts : (quick ? 160 : 600);
  const std::uint64_t duration_ms =
      args.duration_ms > 0 ? args.duration_ms
                           : static_cast<std::uint64_t>(quick ? 2000 : 3000);
  fc.ticks = static_cast<std::uint32_t>((duration_ms + 9) / 10);
  fc.seed = exp.corpus.seed;
  fc.threads = exp.threads;
  fc.drift.enabled = true;
  fc.drift.novel_templates = 4;
  fc.drift.campaign_fraction = 0.25;
  fc.drift.campaign_spread = 8;
  fc.drift.benign_shift = 0.2;
  fc.drift.benign_shift_ramp = 24;
  const std::uint32_t onset = fc.ticks / 2;  // FleetDriftConfig default

  std::fprintf(stderr,
               "[drift] fleet: %zu hosts x %u ticks, campaign onset tick %u "
               "(%zu novel families), %zu worker threads\n",
               fc.hosts, fc.ticks, onset, fc.drift.novel_templates,
               support::resolve_threads(exp.threads));

  const double t0 = benchutil::now_ms();
  const serve::FleetSetup fleet = serve::make_fleet(fc);
  const double setup_ms = benchutil::now_ms() - t0;
  std::fprintf(stderr,
               "[drift] setup done in %.0f ms: %zu static malware hosts, "
               "%zu campaign recruits of %zu hosts\n",
               setup_ms, fleet.malware_hosts, fleet.campaign_hosts, fc.hosts);

  serve::ServeConfig base;
  base.threads = exp.threads;
  base.record_verdicts = true;
  base.drift.enabled = true;
  base.drift.check_interval = 16;
  base.drift.warmup_checks = 2;
  base.drift.min_shards = 2;
  base.refresh.harvest_ticks = 16;
  base.refresh.refresh_lag_ticks = 48;
  if (checkpoint_dir != nullptr)
    base.refresh.checkpoint_dir = checkpoint_dir;

  serve::ServeConfig frozen = base;
  frozen.refresh.enabled = false;
  const serve::ServeReport run_frozen = serve::run_fleet(fleet, frozen);

  const serve::ServeReport run_adaptive = serve::run_fleet(fleet, base);
  const serve::ServeCounters& c = run_adaptive.counters;

  const bool triggered = c.drift_triggers > 0;
  const bool swapped = c.model_swaps > 0;
  const std::uint32_t trigger_tick =
      static_cast<std::uint32_t>(c.drift_trigger_tick);
  const std::uint32_t swap_tick = static_cast<std::uint32_t>(c.model_swap_tick);
  // trigger_tick is the END of the check interval that saw the shift; the
  // lag counts from the first drifted tick to that barrier.
  const std::uint64_t detection_lag =
      triggered && trigger_tick >= onset ? trigger_tick - onset + 1 : 0;

  // Phase accuracies. The tail window starts a few ticks after the swap so
  // the refreshed model's EWMAs have crossed the alarm hysteresis.
  const std::uint32_t tail_from =
      swapped ? std::min(fc.ticks, swap_tick + 8) : fc.ticks;
  const double pre = serve::verdict_window_accuracy(
      fleet, run_adaptive.verdicts, base.drift.check_interval, onset);
  const std::uint32_t degraded_until = swapped ? swap_tick : fc.ticks;
  const double post_onset = serve::verdict_window_accuracy(
      fleet, run_adaptive.verdicts, onset, degraded_until);
  const double post_refresh = serve::verdict_window_accuracy(
      fleet, run_adaptive.verdicts, tail_from, fc.ticks);
  const double frozen_tail = serve::verdict_window_accuracy(
      fleet, run_frozen.verdicts, tail_from, fc.ticks);
  // Recovery: the share of the frozen model's remaining tail headroom the
  // refresh captured — (refreshed - frozen) / (1 - frozen) over the same
  // tail window. 1.0 = the refresh reached perfect tail accuracy, 0 = it
  // bought nothing over the eroded static model. Robust to fleets whose
  // pre-onset accuracy is itself imperfect (the erosion-relative form
  // degenerates when post-onset >= pre-onset).
  const double headroom = 1.0 - frozen_tail;
  const double recovery =
      headroom > 1e-9
          ? std::clamp((post_refresh - frozen_tail) / headroom, 0.0, 1.0)
          : 1.0;

  std::fprintf(stderr,
               "[drift] trigger: tick %u (lag %llu ticks, %llu/%llu shards), "
               "swap: tick %u\n",
               trigger_tick, static_cast<unsigned long long>(detection_lag),
               static_cast<unsigned long long>(c.drift_tripped_shards),
               static_cast<unsigned long long>(c.shards), swap_tick);
  std::fprintf(stderr,
               "[drift] accuracy: pre %.4f -> post-onset %.4f -> tail "
               "frozen %.4f vs refreshed %.4f (recovery %.2f)\n",
               pre, post_onset, frozen_tail, post_refresh, recovery);
  std::fprintf(stderr,
               "[drift] refresh cost: retrain %.0f ms (%llu base + %llu "
               "window rows), swap wait %.1f ms, barriers %.1f ms\n",
               run_adaptive.timing.retrain_ms,
               static_cast<unsigned long long>(c.retrain_base_rows),
               static_cast<unsigned long long>(c.retrain_window_rows),
               run_adaptive.timing.swap_wait_ms,
               run_adaptive.timing.barrier_ms);

  if (verdict_path != nullptr)
    benchutil::dump_verdicts(run_adaptive.verdicts, verdict_path, "drift");

  support::JsonWriter w = benchutil::bench_report("drift");
  w.object("deterministic")
      .str("backend", ml::backend_kind_name(ml::infer_backend_kind()))
      .num("hosts", fc.hosts)
      .num("ticks", fc.ticks)
      .num("campaign_onset", onset)
      .num("campaign_hosts", c.campaign_hosts)
      .num("malware_hosts", c.malware_hosts);
  w.inline_object("detection")
      .num("checks", c.drift_checks)
      .num("triggers", c.drift_triggers)
      .num("trigger_tick", trigger_tick)
      .num("detection_lag_ticks", detection_lag)
      .num("tripped_shards", c.drift_tripped_shards)
      .end();
  w.inline_object("refresh")
      .boolean("swapped", swapped)
      .num("swap_tick", swap_tick)
      .num("base_rows", c.retrain_base_rows)
      .num("window_rows", c.retrain_window_rows)
      .boolean("checkpointed", checkpoint_dir != nullptr)
      .end();
  w.inline_object("accuracy")
      .num("pre_onset", pre, 6)
      .num("post_onset", post_onset, 6)
      .num("post_refresh", post_refresh, 6)
      .num("frozen_tail", frozen_tail, 6)
      .num("recovery_fraction", recovery, 4)
      .end();
  w.hex("adaptive_verdict_hash", c.verdict_hash)
      .hex("frozen_verdict_hash", run_frozen.counters.verdict_hash)
      .end();
  w.object("measured")
      .num("threads", support::resolve_threads(exp.threads))
      .num("setup_ms", setup_ms, 0)
      .num("retrain_ms", run_adaptive.timing.retrain_ms, 1)
      .num("swap_wait_ms", run_adaptive.timing.swap_wait_ms, 1)
      .num("barrier_ms", run_adaptive.timing.barrier_ms, 1)
      .end();
  w.save(out_path, "drift");

  const bool ok = triggered && swapped;
  std::fprintf(stderr, "[drift] wrote %s (%s)\n", out_path,
               ok ? "trigger + refresh landed"
                  : "TRIGGER OR SWAP MISSING");
  return ok ? 0 : 1;
}
