// Set-associative cache and TLB models with selectable replacement.
//
// These are functional (hit/miss) models, not timing models: the Machine
// (machine.h) charges latency penalties itself. Geometry defaults follow
// the Intel Xeon X5550 (Nehalem) the paper measured on.
//
// Replacement policies (the microarchitecture-sensitivity ablation sweeps
// them; true-LRU is the default used everywhere else):
//   kLru     — true least-recently-used
//   kFifo    — evict the oldest-inserted line (no update on hit)
//   kRandom  — uniform random victim (deterministic internal stream)
//   kTreePlru— tree pseudo-LRU (power-of-two associativity; falls back to
//              true LRU for other way counts)
//
// Every policy shares one layout: per set, an array of tags and an array of
// stamps, indexed with shifts and masks. An invalid way is a sentinel tag
// with stamp 0 and every valid stamp is at least 1, so "first invalid way,
// else oldest stamp" is one first-argmin over the stamps (DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/check.h"

namespace hmd::sim {

enum class ReplacementPolicy : std::uint8_t {
  kLru,
  kFifo,
  kRandom,
  kTreePlru,
};

std::string_view replacement_policy_name(ReplacementPolicy policy);

/// Geometry of a set-associative cache (or TLB, with line == page).
struct CacheGeometry {
  std::uint32_t sets = 64;        ///< number of sets (power of two)
  std::uint32_t ways = 8;         ///< associativity
  std::uint32_t line_bytes = 64;  ///< line (or page) size in bytes
  ReplacementPolicy policy = ReplacementPolicy::kLru;

  std::uint64_t capacity_bytes() const {
    return static_cast<std::uint64_t>(sets) * ways * line_bytes;
  }
};

/// A single cache level tracking access/miss counts.
class Cache {
 public:
  explicit Cache(CacheGeometry geo);

  /// Look up `address`; allocates the line on miss. Returns true on hit.
  bool access(std::uint64_t address);

  /// Probe without allocating (used by prefetch-accounting). True on hit.
  bool probe(std::uint64_t address) const;

  /// Insert a line without counting an access (prefetch fill).
  void fill(std::uint64_t address);

  /// Drop all contents and zero statistics (container reset between runs).
  void reset();

  /// Drop contents but keep statistics (e.g. TLB flush on context switch).
  void flush();

  /// Invalidate a random `fraction` (in [0, 1]) of lines — models pollution
  /// by other processes sharing the cache across a context switch. `mix` is
  /// a caller-supplied random word (kept raw to avoid an Rng dependency).
  void pollute(double fraction, std::uint64_t mix);

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }
  const CacheGeometry& geometry() const { return geo_; }

 private:
  /// Tag of an invalid way. A real tag is an address shifted right by at
  /// least one bit (the constructor requires sets * line_bytes >= 2), so no
  /// real tag reaches it.
  static constexpr std::uint64_t kInvalidTag = ~0ULL;

  std::size_t set_of(std::uint64_t address) const {
    return static_cast<std::size_t>((address >> line_shift_) & set_mask_);
  }
  std::uint64_t tag_of(std::uint64_t address) const {
    return address >> tag_shift_;
  }
  /// The set's `ways` tags; its `ways` stamps follow them.
  std::uint64_t* tags_of(std::size_t set) { return &slots_[set * 2 * ways_]; }
  const std::uint64_t* tags_of(std::size_t set) const {
    return &slots_[set * 2 * ways_];
  }

  /// Look `tag` up in `set` and, on a miss, allocate it. True on hit.
  bool lookup(std::size_t set, std::uint64_t tag);
  /// Victim way of a full set; `oldest` is its first oldest-stamp way.
  std::uint32_t pick_victim(std::size_t set, std::uint32_t oldest);
  /// Point the set's tree-PLRU bits away from `way`.
  void touch_plru(std::size_t set, std::uint32_t way);

  CacheGeometry geo_;
  /// The policy as simulated: tree-PLRU on a non-power-of-two way count
  /// runs as true LRU.
  ReplacementPolicy policy_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;
  std::uint32_t tag_shift_;
  std::uint64_t set_mask_;
  /// Per set, `ways` tags then `ways` stamps (LRU recency, or insertion
  /// order). An invalid way holds kInvalidTag and stamp 0; every valid way
  /// has a stamp of at least 1.
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint32_t> plru_;   ///< per-set tree bits (kTreePlru)
  std::uint64_t tick_ = 0;
  std::uint64_t rand_state_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

/// Nehalem-ish default geometries used by MachineConfig.
namespace nehalem {
inline constexpr CacheGeometry kL1I{64, 4, 64};    // 16 KiB scaled model
inline constexpr CacheGeometry kL1D{64, 8, 64};    // 32 KiB
inline constexpr CacheGeometry kLlc{512, 16, 64};  // 512 KiB per-core slice
inline constexpr CacheGeometry kDtlb{16, 4, 4096};
inline constexpr CacheGeometry kItlb{16, 4, 4096};
}  // namespace nehalem

}  // namespace hmd::sim
