// Arithmetic of the benchmark harness, kept apart from the workloads so it
// can be tested on its own: the clock, the percentile report, in-memory
// spans with self time, the repetition-agreement check, and the result
// line the harness prints last.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "serve/controller.h"

namespace hmd::perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start` — the one clock every timing here uses.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an ascending sample.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double h = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (h - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, 0.5);
}

/// A timing sample reported as its median and the highest percentile that
/// still has at least ten samples beyond it, with the sample count. Below
/// twenty samples no percentile qualifies and `high` is the median.
struct PercentileReport {
  double median = 0.0;
  double high_pct = 50.0;  ///< the percentile `high` reports
  double high = 0.0;
  std::size_t count = 0;
};

inline PercentileReport percentile_report(std::vector<double> samples) {
  PercentileReport r;
  r.count = samples.size();
  if (samples.empty()) return r;
  std::sort(samples.begin(), samples.end());
  r.median = quantile_sorted(samples, 0.5);
  r.high = r.median;
  // Candidate percentiles in per-mille, highest first; integer arithmetic
  // so that exactly ten samples beyond p99 of 1000 counts as ten.
  for (const std::size_t pm : {999U, 990U, 950U, 900U, 750U, 500U}) {
    if (samples.size() * (1000 - pm) / 1000 >= 10) {
      r.high_pct = static_cast<double>(pm) / 10.0;
      r.high = quantile_sorted(samples, static_cast<double>(pm) / 1000.0);
      break;
    }
  }
  return r;
}

/// One timed call into a layer: name, interval, and the span that caused
/// it (-1 for a root).
struct Span {
  std::string name;
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double duration_s() const { return end_s - start_s; }
};

/// Self time of spans[id]: its duration minus the part of its interval
/// that its direct children cover. Children may overlap (parallel work),
/// so their intervals are merged before they are subtracted.
inline double self_time(const std::vector<Span>& spans, std::size_t id) {
  const Span& s = spans[id];
  std::vector<std::pair<double, double>> covered;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(id)) continue;
    const double a = std::max(c.start_s, s.start_s);
    const double b = std::min(c.end_s, s.end_s);
    if (b > a) covered.emplace_back(a, b);
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0.0;
  double reach = s.start_s;
  for (const auto& [a, b] : covered) {
    const double from = std::max(a, reach);
    if (b > from) union_s += b - from;
    reach = std::max(reach, b);
  }
  return s.duration_s() - union_s;
}

/// Spans kept in memory and written out when the benchmark ends. Spans
/// are opened and closed on one thread; work measured on other threads is
/// added afterwards with record().
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Seconds since the tracer was made; safe to call from any thread.
  double now() const { return seconds_since(origin_); }

  /// Run `fn` inside a span named `name` under `parent` (-1: a root). The
  /// span's id is stored in `*id_out` before `fn` runs, so `fn` can open
  /// children under it.
  template <typename Fn>
  decltype(auto) span(const char* name, int parent, Fn&& fn,
                      int* id_out = nullptr) {
    spans_.push_back({name, parent, now(), 0.0});
    const int id = static_cast<int>(spans_.size() - 1);
    if (id_out != nullptr) *id_out = id;
    struct Closer {
      Tracer& t;
      int id;
      ~Closer() { t.spans_[static_cast<std::size_t>(id)].end_s = t.now(); }
    } closer{*this, id};
    return fn();
  }

  /// Add a finished span measured elsewhere (e.g. on a worker thread).
  void record(Span s) { spans_.push_back(std::move(s)); }

  const std::vector<Span>& spans() const { return spans_; }
  double duration_s(int id) const {
    return spans_[static_cast<std::size_t>(id)].duration_s();
  }

  /// One line per span: name, parent, duration, self time, and share of
  /// its parent's duration.
  void write(std::FILE* out) const {
    std::fprintf(out, "%-28s %-18s %11s %11s %8s\n", "span", "parent",
                 "wall_ms", "self_ms", "share");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const Span* p =
          s.parent >= 0 ? &spans_[static_cast<std::size_t>(s.parent)] : nullptr;
      const double share =
          p != nullptr && p->duration_s() > 0.0
              ? 100.0 * s.duration_s() / p->duration_s()
              : 100.0;
      std::fprintf(out, "%-28s %-18s %11.3f %11.3f %7.1f%%\n", s.name.c_str(),
                   p != nullptr ? p->name.c_str() : "-",
                   1e3 * s.duration_s(), 1e3 * self_time(spans_, i), share);
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Every field of the deterministic serving domain, in declaration order,
/// so repetitions of one configuration can be compared field by field.
inline std::vector<std::uint64_t> counter_fields(const serve::ServeCounters& c) {
  return {c.hosts,
          c.ticks,
          c.shards,
          c.offered,
          c.missing,
          c.emitted,
          c.admitted,
          c.shed,
          c.batches,
          c.scored_rows,
          c.straggler_batches,
          c.hedges_launched,
          c.alarms_raised,
          c.alarmed_hosts,
          c.malware_hosts,
          c.campaign_hosts,
          c.drift_checks,
          c.drift_triggers,
          c.drift_trigger_tick,
          c.drift_tripped_shards,
          c.model_swaps,
          c.model_swap_tick,
          c.retrain_base_rows,
          c.retrain_window_rows,
          c.final_model_epoch,
          c.verdict_hash};
}

/// True when every repetition produced the same result.
template <typename T>
bool all_agree(const std::vector<T>& runs) {
  return std::adjacent_find(runs.begin(), runs.end(),
                            [](const T& a, const T& b) { return !(a == b); }) ==
         runs.end();
}

/// Output checks of one benchmark process. Any failed check marks every
/// operation of the run as failed.
class Checks {
 public:
  void operation() { ++attempted_; }
  void expect(bool ok, const std::string& what) {
    if (!ok) {
      ok_ = false;
      std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const { return ok_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return ok_ ? 0 : attempted_; }

 private:
  bool ok_ = true;
  std::uint64_t attempted_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: exactly the keys correct, attempted, failed, metrics.
inline std::string result_line(const Checks& checks,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace hmd::perfbench
