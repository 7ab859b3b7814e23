// Fleet-scale streaming detection bench: cross-host batched inference
// versus per-interval scalar scoring, with tail-latency accounting.
//
// Drives a deterministic fleet (serve/fleet.h) through the sharded
// controller/worker serving pipeline (serve/controller.h) three times:
//
//   batched    — one predict_proba_batch call per (tick, shard) batch: the
//                serving layer's reason to exist.
//   unbatched  — the identical pipeline, but every admitted row scored
//                with a batch-of-one call (today's per-OnlineDetector
//                path). The A/B baseline for the headline speedup.
//   overloaded — batched again, with token-bucket admission sized below
//                the offered load: demonstrates explicit shed accounting
//                and the held-state verdicts of shed hosts.
//
// The batched and unbatched runs must produce bit-identical verdict
// streams (same hash) — the speedup is bought by batching alone, never by
// changed results — and the bench exits 1 on any mismatch. Results land
// in BENCH_serve.json: each run's counters in the "deterministic" block,
// identical at any --threads (ci.sh compares it across thread counts and
// with the committed file); sustained intervals/sec, the batched-vs-
// unbatched scoring speedup and P^2 p50/p95/p99 per pipeline stage in the
// "measured" block.
//
// Flags (beyond the shared --quick/--seed/--threads/--backend set):
//   --hosts N        fleet size            (default 2000; 256 in --quick)
//   --duration-ms N  virtual run length    (default 3000; 600 in --quick;
//                    one 10 ms tick per host per interval)
//   --out P          JSON output path      (default BENCH_serve.json)
//   --verdicts P     dump the batched run's verdict stream as text (the
//                    byte-diffable determinism witness; off by default)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/controller.h"
#include "serve/fleet.h"

namespace {

using namespace hmd;

/// Score-stage throughput: rows scored per second of *scoring* time. The
/// cleanest A/B axis — it excludes the (identical) generation, queueing,
/// and state-stepping stages whose noise could mask the batching win.
double score_rows_per_sec(const serve::ServeReport& r) {
  const double total_us =
      r.timing.score.mean() * static_cast<double>(r.timing.score.count());
  return total_us > 0.0
             ? static_cast<double>(r.counters.scored_rows) * 1e6 / total_us
             : 0.0;
}

void print_stage(support::JsonWriter& w, const char* name,
                 const serve::LatencyStats& s) {
  w.inline_object(name)
      .num("p50_us", s.p50(), 2)
      .num("p95_us", s.p95(), 2)
      .num("p99_us", s.p99(), 2)
      .num("mean_us", s.mean(), 2)
      .num("max_us", s.max(), 2)
      .num("count", s.count())
      .end();
}

/// The run's counters: the deterministic half of a ServeReport.
void print_counters(support::JsonWriter& w, const char* name,
                    const serve::ServeCounters& c) {
  w.inline_object(name)
      .num("hosts", c.hosts)
      .num("ticks", c.ticks)
      .num("shards", c.shards)
      .num("offered", c.offered)
      .num("emitted", c.emitted)
      .num("missing", c.missing)
      .num("admitted", c.admitted)
      .num("shed", c.shed)
      .num("batches", c.batches)
      .num("scored_rows", c.scored_rows)
      .num("alarms_raised", c.alarms_raised)
      .num("alarmed_hosts", c.alarmed_hosts)
      .num("malware_hosts", c.malware_hosts)
      .hex("verdict_hash", c.verdict_hash)
      .end();
}

/// The run's timing: the measured half of a ServeReport.
void print_timing(support::JsonWriter& w, const char* name,
                  const serve::ServeReport& r) {
  const serve::ServeTiming& t = r.timing;
  w.object(name)
      .num("wall_ms", t.wall_ms, 2)
      .num("intervals_per_sec", t.intervals_per_sec, 1)
      .num("score_rows_per_sec", score_rows_per_sec(r), 1)
      .num("backpressure_stalls", t.backpressure_stalls);
  print_stage(w, "gen", t.gen);
  print_stage(w, "queue", t.queue);
  print_stage(w, "score", t.score);
  print_stage(w, "step", t.step);
  print_stage(w, "e2e", t.e2e);
  w.end();
}

}  // namespace

int main(int argc, char** argv) {
  const core::ExperimentConfig exp = benchutil::config_from_args(argc, argv);
  const benchutil::ServeArgs args = benchutil::serve_args(argc, argv);
  bool quick = false;
  const char* verdict_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--verdicts") == 0)
      verdict_path = benchutil::flag_value("--verdicts", argc, argv, i);
  }
  const char* out_path = args.out != nullptr ? args.out : "BENCH_serve.json";

  serve::FleetConfig fc;
  fc.hosts = args.hosts > 0 ? args.hosts : (quick ? 256 : 2000);
  const std::uint64_t duration_ms =
      args.duration_ms > 0 ? args.duration_ms
                           : static_cast<std::uint64_t>(quick ? 600 : 3000);
  fc.ticks = static_cast<std::uint32_t>((duration_ms + 9) / 10);
  fc.seed = exp.corpus.seed;
  fc.threads = exp.threads;

  std::fprintf(stderr,
               "[serve] fleet: %zu hosts x %u ticks (%llu virtual ms), "
               "%zu worker threads, %s inference backend\n",
               fc.hosts, fc.ticks,
               static_cast<unsigned long long>(duration_ms),
               support::resolve_threads(exp.threads),
               std::string(ml::backend_kind_name(ml::infer_backend_kind()))
                   .c_str());

  const double t0 = benchutil::now_ms();
  const serve::FleetSetup fleet = serve::make_fleet(fc);
  const double setup_ms = benchutil::now_ms() - t0;
  std::fprintf(stderr,
               "[serve] setup done in %.0f ms: %zu-feature %s model, "
               "%zu bank rows, %zu/%zu malware hosts\n",
               setup_ms, fleet.num_features,
               std::string(fleet.backend->name()).c_str(),
               fleet.bank.size() / fleet.num_features, fleet.malware_hosts,
               fc.hosts);

  serve::ServeConfig base;
  base.threads = exp.threads;

  serve::ServeConfig batched = base;
  batched.batched = true;
  batched.record_verdicts = verdict_path != nullptr;
  const serve::ServeReport run_batched = serve::run_fleet(fleet, batched);
  std::fprintf(stderr,
               "[serve] batched:    %9.0f intervals/s  (%zu shards, "
               "score p99 %.1f us, e2e p99 %.1f us)\n",
               run_batched.timing.intervals_per_sec,
               static_cast<std::size_t>(run_batched.counters.shards),
               run_batched.timing.score.p99(), run_batched.timing.e2e.p99());

  serve::ServeConfig unbatched = base;
  unbatched.batched = false;
  unbatched.record_verdicts = false;
  const serve::ServeReport run_unbatched = serve::run_fleet(fleet, unbatched);
  std::fprintf(stderr, "[serve] unbatched:  %9.0f intervals/s\n",
               run_unbatched.timing.intervals_per_sec);

  // Overload demonstration: admission sized to ~60% of the offered load,
  // bursting to one full tick. Shed is explicit, counted, and survivable
  // (shed hosts hold their EWMA/alarm state via step_missing).
  serve::ServeConfig overloaded = base;
  overloaded.batched = true;
  overloaded.record_verdicts = false;
  overloaded.admit_per_tick = (static_cast<std::uint64_t>(fc.hosts) * 6) / 10;
  overloaded.admit_burst = fc.hosts;
  const serve::ServeReport run_over = serve::run_fleet(fleet, overloaded);
  std::fprintf(stderr,
               "[serve] overloaded: %9.0f intervals/s  (%llu shed of %llu "
               "emitted)\n",
               run_over.timing.intervals_per_sec,
               static_cast<unsigned long long>(run_over.counters.shed),
               static_cast<unsigned long long>(run_over.counters.emitted));

  const bool verdicts_match = run_batched.counters.verdict_hash ==
                              run_unbatched.counters.verdict_hash;
  const double speedup =
      score_rows_per_sec(run_unbatched) > 0.0
          ? score_rows_per_sec(run_batched) / score_rows_per_sec(run_unbatched)
          : 0.0;

  if (verdict_path != nullptr)
    benchutil::dump_verdicts(run_batched.verdicts, verdict_path, "serve");

  support::JsonWriter w = benchutil::bench_report("serve");
  w.object("deterministic")
      .str("backend", ml::backend_kind_name(ml::infer_backend_kind()))
      .num("hosts", fc.hosts)
      .num("ticks", fc.ticks)
      .boolean("verdicts_match", verdicts_match);
  print_counters(w, "batched", run_batched.counters);
  print_counters(w, "unbatched", run_unbatched.counters);
  print_counters(w, "overloaded", run_over.counters);
  w.end().object("measured")
      .num("threads", support::resolve_threads(exp.threads))
      .num("setup_ms", setup_ms, 0)
      .num("batched_speedup", speedup, 3);
  print_timing(w, "batched", run_batched);
  print_timing(w, "unbatched", run_unbatched);
  print_timing(w, "overloaded", run_over);
  w.end().save(out_path, "serve");

  std::fprintf(stderr,
               "[serve] wrote %s (batched scoring speedup %.2fx, verdict "
               "streams %s)\n",
               out_path, speedup,
               verdicts_match ? "bit-identical" : "MISMATCHED");
  return verdicts_match ? 0 : 1;
}
