#include "support/parallel.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "support/check.h"

namespace hmd::support {
namespace {

/// The pool a worker thread belongs to, for its whole life; null on every
/// other thread. parallel_for reads it to tell a nested call on the same
/// pool from a call into another pool.
thread_local ThreadPool* tls_pool = nullptr;

}  // namespace

std::optional<std::size_t> parse_thread_count(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return std::nullopt;
  if (v == 0 || v > 1024) return std::nullopt;
  return static_cast<std::size_t>(v);
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const auto env = parse_thread_count(std::getenv("HMD_THREADS")))
    return *env;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? hc : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(resolve_threads(threads)) {
  if (size_ == 1) return;  // inline mode: no workers, no synchronisation
  workers_.reserve(size_);
  for (std::size_t t = 0; t < size_; ++t)
    workers_.emplace_back([this] {
      tls_pool = this;
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool* ThreadPool::current() { return tls_pool; }

void ThreadPool::run_serial(std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const bool nested = tls_pool == this;
  if (workers_.empty() || (tls_pool != nullptr && !nested)) {
    run_serial(n, fn);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.error_index = n;
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    open_.push_back(&job);
    work_cv_.notify_all();
    // A worker of this pool must not sleep on its own job: it runs units
    // until none is left to claim. It then waits only for units that
    // other workers are running, which never wait on it in turn.
    if (nested)
      while (job.next < job.n) run_unit(job);
    // condition_variable_any waits on the annotated mutex directly; the
    // capability is held again whenever the predicate is evaluated.
    while (!(job.next >= job.n && job.active == 0)) done_cv_.wait(mutex_);
    error = job.error;
  }
  // Rethrown outside the lock so a handler touching the pool cannot
  // deadlock against it.
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::run_unit(Job& job) {
  const std::size_t index = job.next++;
  if (job.next == job.n)  // fully claimed: no longer open
    open_.erase(std::find(open_.begin(), open_.end(), &job));
  ++job.active;
  mutex_.unlock();
  std::exception_ptr thrown;
  try {
    (*job.fn)(index);
  } catch (...) {
    thrown = std::current_exception();
  }
  mutex_.lock();
  if (thrown != nullptr && index < job.error_index) {
    // Every unit still runs; reporting the lowest-index failure keeps the
    // observable error independent of scheduling.
    job.error = thrown;
    job.error_index = index;
  }
  --job.active;
  if (job.next >= job.n && job.active == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && open_.empty()) work_cv_.wait(mutex_);
    if (stop_) return;
    run_unit(*open_.back());
  }
}

}  // namespace hmd::support
