// Token-bucket admission control on the serving pipeline's virtual clock.
//
// The fleet driver is overload-prone by design: thousands of hosts emit a
// sample every 10 ms tick, and the controller must decide — before any
// scoring happens — which samples it can afford to score. A classic token
// bucket does that: `refill_per_tick` tokens arrive per virtual tick, up to
// a burst capacity, and each admitted sample spends one. Samples that find
// the bucket empty are *shed*, explicitly: the host's detector state is
// stepped with OnlineState::step_missing (hold the EWMA/alarm, advance the
// staleness watchdog) and the shed is counted, never silently dropped.
//
// Determinism: the bucket runs entirely on the virtual tick clock (integer
// tokens, refilled by the single-threaded controller in tick order), so the
// admitted/shed partition is a pure function of the workload and the
// configuration — bit-identical at any worker count, which is what puts
// the shed counters in BENCH_serve.json's deterministic block.
#pragma once

#include <cstdint>

namespace hmd::serve {

class TokenBucket {
 public:
  /// A bucket that starts full at `capacity` (the burst allowance) and
  /// gains `refill_per_tick` tokens per refill() call, saturating at
  /// capacity. capacity >= 1, refill_per_tick >= 1: a zero refill silently
  /// sheds ALL traffic once the initial burst is spent, which in a serving
  /// config is almost always a misconfiguration (e.g. an integer rate that
  /// rounded down to 0) — so the constructor rejects it. The deliberate
  /// drain-then-starve shape is still available via burst_only().
  TokenBucket(std::uint64_t capacity, std::uint64_t refill_per_tick);

  /// Explicit zero-refill mode: a bucket holding exactly one burst of
  /// `capacity` tokens that never refills. Every sample after the burst is
  /// shed (and accounted in the shed ledger). This is the documented way to
  /// ask for starvation — e.g. to test shed bookkeeping or to hard-cap a
  /// one-shot admission window — so an accidental `refill_per_tick == 0`
  /// can be rejected loudly by the constructor.
  static TokenBucket burst_only(std::uint64_t capacity);

  /// Advance one virtual tick: add the refill, clamp to capacity.
  void refill();

  /// Request admission for `want` samples; grants what the bucket holds.
  /// Returns the number granted (<= want) and accounts the rest as shed.
  std::uint64_t take(std::uint64_t want);

  std::uint64_t tokens() const { return tokens_; }
  std::uint64_t capacity() const { return capacity_; }

  /// Lifetime accounting: offered = granted + shed, maintained by take().
  std::uint64_t offered() const { return offered_; }
  std::uint64_t granted() const { return granted_; }
  std::uint64_t shed() const { return shed_; }

 private:
  std::uint64_t capacity_;
  std::uint64_t refill_per_tick_;
  std::uint64_t tokens_;
  std::uint64_t offered_ = 0;
  std::uint64_t granted_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace hmd::serve
