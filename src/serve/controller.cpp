#include "serve/controller.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "serve/token_bucket.h"
#include "support/check.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace hmd::serve {

namespace {

constexpr std::uint64_t kHarvestSalt = 0xB3A9D17E4C08F562ULL;

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic per-(host, tick) harvest-sampling decision: whether an
/// admitted window row is kept as retrain input. A pure hash, independent
/// of the drop and scale streams, so harvesting perturbs nothing.
bool harvest_keep(std::uint64_t seed, std::uint32_t host, std::uint32_t tick,
                  double keep_prob) {
  if (keep_prob >= 1.0) return true;
  const std::uint64_t v =
      mix64(mix64(seed ^ kHarvestSalt) ^
            ((static_cast<std::uint64_t>(host) << 32) | tick));
  return static_cast<double>(v >> 11) * 0x1.0p-53 < keep_prob;
}

/// One unit of work: one worker's shards of one tick.
struct Task {
  std::uint32_t tick = 0;
  /// Inference engine of the model epoch current at DISPATCH time. Bound
  /// by the controller, on the virtual tick clock — a late-executing task
  /// still scores with the epoch its tick belongs to, which is what keeps
  /// verdict streams bit-identical across worker counts through a
  /// hot-swap. Points into run_fleet-owned storage that outlives workers.
  const ml::InferenceBackend* backend = nullptr;
  /// Row-major features of the *scored* hosts of the worker's shards:
  /// shards ascending, each in shard host order.
  std::vector<double> rows;
  /// Outcome per host of the worker's shards, in the same order.
  std::vector<SampleOutcome> outcomes;
  double created_us = 0.0;  ///< tick assembly start (e2e anchor)
  double enqueue_us = 0.0;  ///< queue-wait anchor
};

/// A worker's finished task, bound for the collector.
struct Chunk {
  std::uint32_t tick = 0;
  std::vector<ServeVerdict> verdicts;
  std::uint64_t alarms = 0;  ///< false->true transitions in this task
  std::uint64_t scored = 0;  ///< rows scored (== admitted hosts)
  double queue_us = 0.0;
  double score_us = 0.0;
  double step_us = 0.0;
  double e2e_us = 0.0;
};

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Folds verdicts, in order, into a running FNV-1a 64 hash of their
/// canonical byte serialisation. The one hash routine: the collector folds
/// the stream tick by tick, verdict_stream_hash folds a whole stream.
std::uint64_t fnv_fold(std::uint64_t h,
                       std::span<const ServeVerdict> verdicts) {
  const auto mix = [&h](std::uint64_t v, unsigned bytes) {
    for (unsigned b = 0; b < bytes; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  };
  for (const ServeVerdict& v : verdicts) {
    mix(v.tick, 4);
    mix(v.host, 4);
    mix(static_cast<std::uint64_t>(v.outcome), 1);
    mix(static_cast<std::uint64_t>(v.alarm) |
            (static_cast<std::uint64_t>(v.stale) << 1),
        1);
    mix(std::bit_cast<std::uint64_t>(v.score), 8);
    mix(std::bit_cast<std::uint64_t>(v.ewma), 8);
  }
  return h;
}

}  // namespace

std::uint64_t verdict_stream_hash(const std::vector<ServeVerdict>& verdicts) {
  return fnv_fold(kFnvOffsetBasis, verdicts);
}

ServeReport run_fleet(const FleetSetup& fleet, const ServeConfig& cfg) {
  const std::size_t hosts = fleet.hosts.size();
  const std::uint32_t ticks = fleet.cfg.ticks;
  const std::size_t nf = fleet.num_features;
  HMD_REQUIRE(hosts >= 1 && ticks >= 1 && nf >= 1);
  HMD_REQUIRE(cfg.queue_capacity >= 1);

  // Shard count is deterministic-domain: auto depends on the fleet only,
  // never on the worker count.
  std::size_t num_shards =
      cfg.shards > 0 ? cfg.shards : std::max<std::size_t>(1, hosts / 32);
  num_shards = std::min(num_shards, hosts);
  const std::size_t workers =
      std::max<std::size_t>(1,
                            std::min(support::resolve_threads(cfg.threads),
                                     num_shards));

  // Shard s owns hosts h with h mod S == s, ascending; worker w owns
  // shards s with s mod W == w. Per-shard state is touched only by its
  // owning worker, and tasks reach it tick-ordered through a FIFO queue —
  // that exclusivity plus ordering is the whole thread-safety story for
  // detector state.
  std::vector<std::vector<std::uint32_t>> shard_hosts(num_shards);
  for (std::uint32_t h = 0; h < hosts; ++h)
    shard_hosts[h % num_shards].push_back(h);
  std::vector<std::vector<core::OnlineState>> state(num_shards);
  std::vector<std::vector<std::uint8_t>> ever_alarmed(num_shards);
  std::vector<std::size_t> worker_hosts(workers, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    state[s].resize(shard_hosts[s].size());
    ever_alarmed[s].assign(shard_hosts[s].size(), 0);
    worker_hosts[s % workers] += shard_hosts[s].size();
  }

  std::vector<std::unique_ptr<support::BoundedQueue<Task>>> task_q;
  for (std::size_t w = 0; w < workers; ++w)
    task_q.push_back(
        std::make_unique<support::BoundedQueue<Task>>(cfg.queue_capacity));
  support::BoundedQueue<Chunk> result_q(
      std::max<std::size_t>(64, 4 * workers));

  ServeReport report;
  ServeCounters& counters = report.counters;
  ServeTiming& timing = report.timing;
  std::vector<ServeVerdict> verdicts;
  if (cfg.record_verdicts)
    verdicts.reserve(static_cast<std::size_t>(hosts) * ticks);
  std::uint64_t verdict_hash = kFnvOffsetBasis;

  const double t_start = now_us();

  // Collector: drains result chunks into a reorder buffer keyed by tick.
  // Each worker's chunks arrive in tick order and every tick needs one
  // chunk from every worker, so ticks complete in tick order; a complete
  // tick, scattered into host order, is folded into the hash (and kept
  // only when recording). Sole owner of `timing`, `verdicts`,
  // `verdict_hash` and the chunk-summed counters until joined.
  std::thread collector([&] {
    // pending[i]: the chunks of tick next_tick + i received so far.
    std::deque<std::vector<Chunk>> pending;
    std::vector<ServeVerdict> tick_verdicts(hosts);
    std::uint32_t next_tick = 0;
    while (std::optional<Chunk> c = result_q.pop()) {
      timing.queue.add(c->queue_us);
      timing.score.add(c->score_us);
      timing.step.add(c->step_us);
      timing.e2e.add(c->e2e_us);
      counters.scored_rows += c->scored;
      counters.alarms_raised += c->alarms;
      const std::size_t slot = c->tick - next_tick;
      if (pending.size() <= slot) pending.resize(slot + 1);
      pending[slot].push_back(std::move(*c));
      while (!pending.empty() && pending.front().size() == workers) {
        for (const Chunk& done : pending.front())
          for (const ServeVerdict& v : done.verdicts) tick_verdicts[v.host] = v;
        verdict_hash = fnv_fold(verdict_hash, tick_verdicts);
        if (cfg.record_verdicts)
          verdicts.insert(verdicts.end(), tick_verdicts.begin(),
                          tick_verdicts.end());
        pending.pop_front();
        ++next_tick;
      }
    }
  });

  // Drift machinery (serve/drift.h). Windows are written by each shard's
  // owning worker and read by the controller only at pipeline-drain
  // barriers; `completed` (vs the controller's dispatched count) is the
  // barrier condition and the happens-before edge for those reads.
  const bool drift_on = cfg.drift.enabled;
  std::vector<ShardScoreWindow> windows;
  std::optional<DriftDetector> detector;
  if (drift_on) {
    HMD_REQUIRE(!cfg.refresh.enabled ||
                cfg.refresh.refresh_lag_ticks > cfg.refresh.harvest_ticks);
    windows.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s)
      windows.emplace_back(cfg.drift.tail_q);
    detector.emplace(cfg.drift, num_shards);
  }
  std::atomic<std::uint64_t> completed{0};

  // Workers: score a task's rows in one call, then step its shards'
  // automata shard by shard. The engine comes from the task (the model
  // epoch bound at dispatch), never from shared mutable state.
  const auto score_batch = [&](const ml::InferenceBackend& backend,
                               const std::vector<double>& rows,
                               std::vector<double>& out) {
    const std::size_t n = rows.size() / nf;
    out.assign(n, 0.0);
    if (n == 0) return;
    if (cfg.batched) {
      backend.predict_proba_batch(rows, nf, out);
    } else {
      // A/B baseline: the identical engine, one batch-of-one call per row
      // — the per-interval scalar path every OnlineDetector runs today.
      const std::span<const double> x(rows);
      for (std::size_t i = 0; i < n; ++i)
        out[i] = backend.predict_proba(x.subspan(i * nf, nf));
    }
  };

  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      std::vector<double> scores;
      while (std::optional<Task> t = task_q[w]->pop()) {
        const double pop_us = now_us();
        Task& task = *t;
        score_batch(*task.backend, task.rows, scores);
        const double scored_us = now_us();

        Chunk c;
        c.tick = task.tick;
        c.verdicts.reserve(task.outcomes.size());
        std::size_t i = 0;  // cursor into the task's hosts
        std::size_t k = 0;  // cursor into the task's scored rows
        for (std::size_t s = w; s < num_shards; s += workers) {
          std::vector<core::OnlineState>& st = state[s];
          std::vector<std::uint8_t>& ever = ever_alarmed[s];
          for (std::size_t j = 0; j < st.size(); ++j, ++i) {
            const bool was = st[j].alarmed();
            core::Verdict v;
            if (task.outcomes[i] == SampleOutcome::kScored) {
              const double sc = scores[k++];
              // Shard windows fill in FIFO tick order by the single owning
              // worker — the deterministic observation sequence the drift
              // detector's purity contract rests on.
              if (drift_on) windows[s].observe(sc);
              v = st[j].step_score(cfg.online, sc);
            } else {
              v = st[j].step_missing(cfg.online);
            }
            if (!was && st[j].alarmed()) {
              ++c.alarms;
              ever[j] = 1;
            }
            c.verdicts.push_back({task.tick, shard_hosts[s][j], v.score,
                                  v.ewma, task.outcomes[i], v.alarm,
                                  v.stale});
          }
        }
        c.scored = k;
        const double done_us = now_us();
        c.queue_us = pop_us - task.enqueue_us;
        c.score_us = scored_us - pop_us;
        c.step_us = done_us - scored_us;
        c.e2e_us = done_us - task.created_us;
        result_q.push(std::move(c));
        if (drift_on) {
          // Release: publishes this task's window writes to the
          // controller's barrier (acquire) read.
          completed.fetch_add(1, std::memory_order_release);
          completed.notify_all();
        }
      }
    });
  }

  // Controller (this thread): the single producer. Admission, drops,
  // harvest and tick assembly all happen here, on the virtual tick clock,
  // in (tick, shard, host) order — the deterministic domain.
  const std::uint64_t admit_cap =
      cfg.admit_burst > 0 ? cfg.admit_burst : cfg.admit_per_tick;
  std::optional<TokenBucket> bucket;
  if (cfg.admit_per_tick > 0) bucket.emplace(admit_cap, cfg.admit_per_tick);

  std::uint64_t missing = 0;
  std::uint64_t shed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t stalls = 0;
  std::uint64_t dispatched = 0;  ///< barrier denominator
  LatencyStats gen_stats;

  // Model-epoch state. Epoch 0 serves with the fleet's backend; a single
  // drift-triggered refresh installs epoch 1 at a fixed virtual tick. The
  // current pointer is bound into every Task at dispatch, so the swap
  // needs no barrier: in-flight epoch-0 tasks keep their epoch-0 engine.
  const ml::InferenceBackend* current_backend = fleet.backend.get();
  std::shared_ptr<const ml::Classifier> swapped_model;
  std::unique_ptr<ml::InferenceBackend> swapped_backend;
  std::uint64_t current_epoch = 0;
  std::uint64_t model_swaps = 0;
  std::uint64_t model_swap_tick = 0;

  // Pipeline-drain barrier: every dispatched task stepped and its shards'
  // windows published. Only used at drift checks.
  const auto drain_pipeline = [&] {
    std::uint64_t done = completed.load(std::memory_order_acquire);
    while (done != dispatched) {
      completed.wait(done, std::memory_order_acquire);
      done = completed.load(std::memory_order_acquire);
    }
  };

  // Refresh state machine: trigger -> harvest window rows (controller
  // side, at assembly) -> background retrain -> hot-swap at swap_tick.
  bool trigger_seen = false;
  bool harvesting = false;
  std::uint32_t harvest_from = 0, harvest_until = 0;
  double harvest_keep_prob = 1.0;
  std::vector<double> harvest_rows;
  std::vector<int> harvest_labels;
  bool swap_scheduled = false;
  std::uint32_t swap_tick = 0;
  struct RetrainShared {
    RetrainOutcome out;
    double ms = 0.0;
    /// A failed retrain's exception: the swap is skipped and run_fleet
    /// rethrows it once every thread has joined.
    std::exception_ptr error;
  };
  std::unique_ptr<RetrainShared> retrain_shared;
  std::thread retrain_thread;
  double barrier_us = 0.0;

  for (std::uint32_t tick = 0; tick < ticks; ++tick) {
    // Hot-swap at the scheduled virtual tick: every batch from this tick
    // on scores with the refreshed model. The join is the only place the
    // controller can block on the retrain — measured domain only (the
    // swap tick itself was fixed at trigger time).
    if (swap_scheduled && tick == swap_tick) {
      swap_scheduled = false;
      const double w0 = now_us();
      retrain_thread.join();
      timing.swap_wait_ms = (now_us() - w0) / 1000.0;
      if (retrain_shared->error == nullptr) {
        swapped_model = retrain_shared->out.model;
        swapped_backend = ml::make_active_backend(*swapped_model);
        current_backend = swapped_backend.get();
        current_epoch = 1;
        model_swaps = 1;
        model_swap_tick = tick;
      }
    }
    if (bucket && tick > 0) bucket->refill();  // the bucket starts full
    // Assemble the whole tick, one task per worker. Shards are visited in
    // ascending order whatever the worker count: that order drives
    // admission, drops and the harvest, so it must not depend on which
    // worker a shard goes to.
    const double t0 = now_us();
    std::vector<Task> tasks(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      tasks[w].tick = tick;
      tasks[w].backend = current_backend;
      tasks[w].rows.reserve(worker_hosts[w] * nf);
      tasks[w].outcomes.reserve(worker_hosts[w]);
      tasks[w].created_us = t0;
    }
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      Task& task = tasks[s % workers];
      std::vector<double>& rows = task.rows;
      for (const std::uint32_t h : shard_hosts[s]) {
        if (sample_dropped(fleet, h, tick)) {
          task.outcomes.push_back(SampleOutcome::kMissing);
          ++missing;
          continue;
        }
        if (bucket && bucket->take(1) == 0) {
          task.outcomes.push_back(SampleOutcome::kShed);
          ++shed;
          continue;
        }
        task.outcomes.push_back(SampleOutcome::kScored);
        ++admitted;
        const std::size_t at = rows.size();
        rows.resize(at + nf);
        gen_features(fleet, h, tick, std::span<double>(rows).subspan(at, nf));
        // Harvest (post-trigger): a deterministic hash-sample of admitted
        // windows becomes retrain input, labelled by ground truth — the
        // analyst-triage model (drift.h). Rows are copied here, at
        // assembly, so the harvest never touches worker-owned data.
        if (harvesting && tick >= harvest_from && tick < harvest_until &&
            harvest_labels.size() < cfg.refresh.max_window_rows &&
            harvest_keep(fleet.cfg.seed, h, tick, harvest_keep_prob)) {
          const std::span<const double> row(rows);
          harvest_rows.insert(harvest_rows.end(), row.begin() + at,
                              row.begin() + at + nf);
          harvest_labels.push_back(host_infected(fleet, h, tick) ? 1 : 0);
        }
      }
    }
    gen_stats.add(now_us() - t0);
    for (std::size_t w = 0; w < workers; ++w) {
      tasks[w].enqueue_us = now_us();
      ++dispatched;
      if (!task_q[w]->try_push(tasks[w])) {
        ++stalls;  // backpressure: a full queue stalls the controller
        task_q[w]->push(std::move(tasks[w]));
      }
    }

    if (drift_on && (tick + 1) % cfg.drift.check_interval == 0) {
      // Drift check: drain the pipeline (the acquire on `completed` makes
      // every worker's window writes visible), evaluate, reset windows for
      // the next interval. The barrier cost is measured-domain; the check
      // verdict is a pure function of the score stream.
      const double b0 = now_us();
      drain_pipeline();
      barrier_us += now_us() - b0;
      const bool fired =
          detector->check(std::span<const ShardScoreWindow>(windows), tick);
      for (ShardScoreWindow& w : windows) w.reset();
      if (fired && !trigger_seen) {
        trigger_seen = true;
        if (cfg.refresh.enabled) {
          // Fix the whole refresh timeline now, on the tick clock: harvest
          // the next harvest_ticks ticks, swap at trigger + lag. The keep
          // probability targets max_window_rows with 25% headroom (the
          // row-count cap above is the hard stop); it depends only on
          // fleet geometry, so it is deterministic too.
          harvesting = true;
          harvest_from = tick + 1;
          harvest_until = tick + 1 + cfg.refresh.harvest_ticks;
          const double expected =
              static_cast<double>(hosts) *
              static_cast<double>(cfg.refresh.harvest_ticks);
          harvest_keep_prob = std::min(
              1.0,
              expected > 0.0
                  ? static_cast<double>(cfg.refresh.max_window_rows) * 1.25 /
                        expected
                  : 1.0);
          swap_scheduled = true;
          swap_tick = tick + cfg.refresh.refresh_lag_ticks;
        }
      }
    }

    if (harvesting && tick + 1 == harvest_until) {
      // Harvest complete: kick the retrain off on a background worker. It
      // owns moved copies of the harvest; the controller only rejoins it
      // at the swap tick (or at end of run if the swap lands past it).
      harvesting = false;
      retrain_shared = std::make_unique<RetrainShared>();
      retrain_thread = std::thread(
          [&fleet, &refresh = cfg.refresh, shared = retrain_shared.get(),
           rows = std::move(harvest_rows),
           labels = std::move(harvest_labels)] {
            const double r0 = now_us();
            try {
              shared->out = retrain_model(fleet, rows, labels, refresh);
            } catch (...) {
              shared->error = std::current_exception();
            }
            shared->ms = (now_us() - r0) / 1000.0;
          });
    }
  }

  for (auto& q : task_q) q->close();
  for (std::thread& t : pool) t.join();
  result_q.close();
  collector.join();
  // A retrain whose swap tick landed past the end of the run (or was
  // launched on the final ticks) still has to be joined; its model is
  // simply never installed.
  if (retrain_thread.joinable()) retrain_thread.join();
  if (retrain_shared && retrain_shared->error != nullptr)
    std::rethrow_exception(retrain_shared->error);
  const double t_end = now_us();

  counters.hosts = hosts;
  counters.ticks = ticks;
  counters.shards = num_shards;
  counters.offered = static_cast<std::uint64_t>(hosts) * ticks;
  counters.missing = missing;
  counters.emitted = counters.offered - missing;
  counters.admitted = admitted;
  counters.shed = shed;
  counters.batches = static_cast<std::uint64_t>(ticks) * num_shards;
  counters.malware_hosts = fleet.malware_hosts;
  counters.campaign_hosts = fleet.campaign_hosts;
  for (const auto& flags : ever_alarmed)
    for (std::uint8_t f : flags) counters.alarmed_hosts += f;
  if (drift_on) {
    counters.drift_checks = detector->checks();
    counters.drift_triggers = detector->triggers();
    counters.drift_trigger_tick = detector->trigger_tick();
    counters.drift_tripped_shards = detector->tripped_shards();
  }
  counters.model_swaps = model_swaps;
  counters.model_swap_tick = model_swap_tick;
  if (retrain_shared) {
    counters.retrain_base_rows = retrain_shared->out.base_rows;
    counters.retrain_window_rows = retrain_shared->out.window_rows;
    timing.retrain_ms = retrain_shared->ms;
    report.refit_model = retrain_shared->out.model;
  }
  counters.final_model_epoch = current_epoch;
  counters.verdict_hash = verdict_hash;

  timing.gen = gen_stats;
  timing.wall_ms = (t_end - t_start) / 1000.0;
  timing.intervals_per_sec =
      timing.wall_ms > 0.0
          ? static_cast<double>(counters.offered) * 1000.0 / timing.wall_ms
          : 0.0;
  timing.backpressure_stalls = stalls;
  timing.barrier_ms = barrier_us / 1000.0;

  report.verdicts = std::move(verdicts);
  return report;
}

double verdict_window_accuracy(const FleetSetup& fleet,
                               const std::vector<ServeVerdict>& verdicts,
                               std::uint32_t begin_tick,
                               std::uint32_t end_tick) {
  std::uint64_t n = 0;
  std::uint64_t correct = 0;
  for (const ServeVerdict& v : verdicts) {
    if (v.tick < begin_tick || v.tick >= end_tick) continue;
    ++n;
    if (v.alarm == host_infected(fleet, v.host, v.tick)) ++correct;
  }
  return n > 0 ? static_cast<double>(correct) / static_cast<double>(n) : 0.0;
}

}  // namespace hmd::serve
