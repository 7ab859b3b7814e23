#include "sim/cache.h"

#include <algorithm>
#include <bit>

namespace hmd::sim {

std::string_view replacement_policy_name(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru: return "LRU";
    case ReplacementPolicy::kFifo: return "FIFO";
    case ReplacementPolicy::kRandom: return "random";
    case ReplacementPolicy::kTreePlru: return "tree-PLRU";
  }
  throw PreconditionError("unknown replacement policy");
}

Cache::Cache(CacheGeometry geo)
    : geo_(geo),
      policy_(geo.policy),
      ways_(geo.ways),
      line_shift_(
          static_cast<std::uint32_t>(std::countr_zero(geo.line_bytes))),
      tag_shift_(line_shift_ +
                 static_cast<std::uint32_t>(std::countr_zero(geo.sets))),
      set_mask_(geo.sets - 1) {
  HMD_REQUIRE_MSG(std::has_single_bit(geo_.sets),
                  "cache sets must be a power of two");
  HMD_REQUIRE(geo_.ways >= 1);
  HMD_REQUIRE(std::has_single_bit(geo_.line_bytes));
  HMD_REQUIRE_MSG(tag_shift_ >= 1, "cache needs sets * line_bytes >= 2");
  if (policy_ == ReplacementPolicy::kTreePlru) {
    if (std::has_single_bit(geo_.ways))
      plru_.assign(geo_.sets, 0);
    else
      policy_ = ReplacementPolicy::kLru;
  }
  slots_.resize(static_cast<std::size_t>(geo_.sets) * 2 * ways_);
  flush();
}

std::uint32_t Cache::pick_victim(std::size_t set, std::uint32_t oldest) {
  switch (policy_) {
    case ReplacementPolicy::kRandom:
      rand_state_ =
          rand_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::uint32_t>((rand_state_ >> 33) % ways_);
    case ReplacementPolicy::kTreePlru: {
      // Walk the tree: each bit says which half was touched less recently.
      const std::uint32_t bits = plru_[set];
      std::uint32_t node = 0;  // index within the implicit tree
      std::uint32_t lo = 0;
      for (std::uint32_t span = ways_ / 2; span >= 1; span /= 2) {
        const std::uint32_t right = (bits >> node) & 1u;
        lo += right * span;
        node = 2 * node + 1 + right;
      }
      return lo;
    }
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo:
      // Both use the stamp; FIFO simply never refreshes it on hits.
      return oldest;
  }
  throw InvariantError("unreachable replacement policy");
}

void Cache::touch_plru(std::size_t set, std::uint32_t way) {
  std::uint32_t& bits = plru_[set];
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  for (std::uint32_t span = ways_ / 2; span >= 1; span /= 2) {
    // Point the bit at the *other* half.
    const std::uint32_t right = way >= lo + span ? 1u : 0u;
    bits = (bits & ~(1u << node)) | ((right ^ 1u) << node);
    lo += right * span;
    node = 2 * node + 1 + right;
  }
}

bool Cache::lookup(std::size_t set, std::uint64_t tag) {
  std::uint64_t* tags = tags_of(set);
  std::uint64_t* stamps = tags + ways_;
  // A branch-free pass over the tags finds the way holding `tag`; at most
  // one does.
  std::uint32_t hit = ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) hit = tags[w] == tag ? w : hit;
  ++tick_;
  if (hit != ways_) {
    if (policy_ == ReplacementPolicy::kLru)
      stamps[hit] = tick_;
    else if (policy_ == ReplacementPolicy::kTreePlru)
      touch_plru(set, hit);
    return true;
  }
  // A miss takes the first way with the smallest stamp. Invalid ways have
  // stamp 0 and valid ones at least 1, so that is the first invalid way if
  // there is one, else the least recently stamped.
  std::uint32_t oldest = 0;
  std::uint64_t oldest_stamp = stamps[0];
  for (std::uint32_t w = 1; w < ways_; ++w) {
    const bool older = stamps[w] < oldest_stamp;
    oldest = older ? w : oldest;
    oldest_stamp = older ? stamps[w] : oldest_stamp;
  }
  const std::uint32_t way =
      oldest_stamp == 0 ? oldest : pick_victim(set, oldest);
  tags[way] = tag;
  stamps[way] = tick_;
  if (policy_ == ReplacementPolicy::kTreePlru) touch_plru(set, way);
  return false;
}

bool Cache::access(std::uint64_t address) {
  ++accesses_;
  const bool hit = lookup(set_of(address), tag_of(address));
  misses_ += hit ? 0 : 1;
  return hit;
}

bool Cache::probe(std::uint64_t address) const {
  const std::uint64_t* tags = tags_of(set_of(address));
  const std::uint64_t tag = tag_of(address);
  bool hit = false;
  for (std::uint32_t w = 0; w < ways_; ++w) hit |= tags[w] == tag;
  return hit;
}

void Cache::fill(std::uint64_t address) {
  lookup(set_of(address), tag_of(address));
}

void Cache::reset() {
  flush();
  tick_ = 0;
  accesses_ = 0;
  misses_ = 0;
  rand_state_ = 0x9E3779B97F4A7C15ULL;
}

void Cache::flush() {
  for (std::size_t set = 0; set < geo_.sets; ++set) {
    std::uint64_t* tags = tags_of(set);
    std::fill_n(tags, ways_, kInvalidTag);
    std::fill_n(tags + ways_, ways_, 0);
  }
  std::fill(plru_.begin(), plru_.end(), 0);
}

void Cache::pollute(double fraction, std::uint64_t mix) {
  // Written so that NaN fails it too.
  HMD_REQUIRE_MSG(fraction >= 0.0 && fraction <= 1.0,
                  "pollute fraction must be in [0, 1]");
  if (fraction == 0.0) return;
  const auto threshold = static_cast<std::uint64_t>(
      fraction * 1024.0);  // fraction in 1/1024 units
  std::uint64_t h = mix | 1;
  for (std::size_t set = 0; set < geo_.sets; ++set) {
    std::uint64_t* tags = tags_of(set);
    std::uint64_t* stamps = tags + ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      // Cheap LCG walk; quality is irrelevant for eviction noise. The
      // eviction is a mask, not a branch: it is taken at random.
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t evict =
          0 - std::uint64_t{(h >> 33) % 1024 < threshold};
      tags[w] |= evict;  // kInvalidTag is all ones
      stamps[w] &= ~evict;
    }
  }
}

}  // namespace hmd::sim
