// Deterministic parallel execution for the experiment pipeline.
//
// The paper's workload is embarrassingly parallel at two levels — the
// 11-runs-per-application capture campaign and the 8 classifiers ×
// {General, Boosted, Bagging} × {16,8,4,2} evaluation grid — and every unit
// of work derives its randomness from explicit per-unit seeds (see
// support/rng.h), never from shared mutable state. ThreadPool exploits
// that: `parallel_for(n, fn)` runs fn(0..n-1) on a fixed set of workers and
// `parallel_map` assembles results *in input order*, so the output of a
// parallel run is bit-identical to a serial one. Determinism contract:
//
//   * work unit i must depend only on i and on state that is immutable for
//     the duration of the call (enforced by convention, checked by the
//     serial-vs-parallel tests);
//   * results are written to slot i, never appended, so completion order
//     cannot leak into the output;
//   * if several units throw, the exception of the *lowest* index is
//     rethrown — every unit still runs, keeping error reporting
//     deterministic too.
//
// Thread count: an explicit request wins; 0 means "auto" — the HMD_THREADS
// environment variable if set, else std::thread::hardware_concurrency().
// A pool of size 1 spawns no threads at all and runs everything inline,
// which is the degenerate-correctness baseline.
//
// Nesting: a parallel_for called from a worker of the *same* pool opens a
// nested job on it. The calling worker runs units of that job itself and
// idle workers join in, so work nested in a unit (the members of a bagged
// ensemble inside one grid cell) spreads across the pool. A call into a
// *different* pool from inside a worker runs inline, so pools never
// over-subscribe one another. ThreadPool::current() names the pool whose
// worker is running the calling thread, for code that wants to fan out
// only when it is already inside one.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/thread_safety.h"

namespace hmd::support {

/// Parse a thread-count override in the HMD_THREADS format: a positive
/// decimal integer. Returns nullopt for null, empty, zero, junk, or
/// implausibly large (> 1024) values.
std::optional<std::size_t> parse_thread_count(const char* text);

/// Effective worker count for a request: `requested` if positive, else
/// HMD_THREADS from the environment, else hardware_concurrency (min 1).
std::size_t resolve_threads(std::size_t requested = 0);

/// Bounded multi-producer/multi-consumer FIFO queue — the hand-off
/// primitive of the serving pipeline (src/serve), reusable anywhere a
/// stage boundary needs backpressure.
///
/// Semantics:
///   * push() blocks while the queue is full — a slow consumer therefore
///     stalls its producers instead of growing an unbounded backlog
///     (backpressure). Returns false iff the queue was closed.
///   * try_push() never blocks: false when full or closed (the caller can
///     count the would-have-stalled case before falling back to push()).
///   * pop() blocks while empty; after close() it drains the remaining
///     items in FIFO order and then returns nullopt — shutdown never
///     loses accepted work.
///   * close() is idempotent and wakes every waiter.
///
/// FIFO order is per-queue total order: items pushed by one thread are
/// popped in push order (the serving controller relies on this to keep
/// per-shard state updates in tick order). All fields are guarded by one
/// mutex (clang -Wthread-safety checked); condition waits run on the
/// annotated support::Mutex directly.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    HMD_REQUIRE(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocking enqueue; false iff the queue is (or becomes) closed.
  bool push(T value) {
    MutexLock lock(mutex_);
    not_full_.wait(mutex_,
                   [&]() HMD_REQUIRES(mutex_) {
                     return closed_ || items_.size() < capacity_;
                   });
    if (closed_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking enqueue; false when full or closed (`value` is left
  /// untouched so the caller can retry with push()).
  bool try_push(T& value) {
    MutexLock lock(mutex_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    not_empty_.notify_one();
    return true;
  }

  /// Blocking dequeue; nullopt once the queue is closed *and* drained.
  std::optional<T> pop() {
    MutexLock lock(mutex_);
    not_empty_.wait(mutex_, [&]() HMD_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;  // closed and drained
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return out;
  }

  /// Non-blocking dequeue; nullopt when currently empty.
  std::optional<T> try_pop() {
    MutexLock lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return out;
  }

  /// Close the queue: subsequent pushes fail, pops drain then end.
  void close() {
    MutexLock lock(mutex_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  mutable Mutex mutex_;
  std::condition_variable_any not_full_;   ///< producers wait for space
  std::condition_variable_any not_empty_;  ///< consumers wait for items
  std::deque<T> items_ HMD_GUARDED_BY(mutex_);
  const std::size_t capacity_;
  bool closed_ HMD_GUARDED_BY(mutex_) = false;
};

class ThreadPool {
 public:
  /// `threads == 0` resolves via resolve_threads(). A pool of size 1 owns
  /// no worker threads and executes inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }

  /// The pool whose worker thread is calling, or null outside any pool.
  static ThreadPool* current();

  /// Invoke fn(i) for every i in [0, n); blocks until all complete. Any
  /// number of threads may call at once. From a worker of this pool the
  /// call is a nested job that the caller helps run; from a worker of
  /// another pool it runs inline.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// parallel_for that collects fn(i) into slot i of the result vector —
  /// the output order is the input order regardless of scheduling.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::optional<R>> slots(n);
    parallel_for(n, [&](std::size_t i) { slots[i].emplace(fn(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

 private:
  /// One parallel_for call. It lives on the caller's stack; every field
  /// is read and written only under the owning pool's mutex_. The caller
  /// cannot return before `next == n && active == 0`, so a worker may keep
  /// a reference across the unlocked run of a unit it claimed.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;    ///< next unclaimed index
    std::size_t active = 0;  ///< units claimed and still running
    std::exception_ptr error;
    std::size_t error_index = 0;  ///< lowest index that threw so far
  };

  void worker_loop();
  void run_serial(std::size_t n, const std::function<void(std::size_t)>& fn);
  /// Claim the next unit of `job` and run it with the lock released.
  void run_unit(Job& job) HMD_REQUIRES(mutex_);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;

  /// Pool state, guarded by mutex_ (checked by clang -Wthread-safety; see
  /// support/thread_safety.h).
  Mutex mutex_;
  std::condition_variable_any work_cv_;  ///< workers wait for a job
  std::condition_variable_any done_cv_;  ///< callers wait for their job
  /// Jobs with unclaimed units, oldest first. Workers serve the newest,
  /// so a nested job runs before the outer job hands out another unit.
  std::vector<Job*> open_ HMD_GUARDED_BY(mutex_);
  bool stop_ HMD_GUARDED_BY(mutex_) = false;
};

}  // namespace hmd::support
