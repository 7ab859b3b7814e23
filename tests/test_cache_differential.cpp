// Differential test of sim::Cache against a reference model.
//
// The reference is the straightforward array-of-lines cache: one
// {tag, stamp, valid} struct per way, a hit scan, an invalid-way scan and an
// oldest-stamp scan per miss, and division-based indexing. sim::Cache packs
// its sets differently for speed; here both run the same seeded random
// sequences of access / fill / probe / flush / pollute / reset, and every
// return value and counter must agree, for every policy and for geometries
// from direct-mapped to fully associative.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.h"
#include "support/rng.h"

namespace hmd::sim {
namespace {

class ReferenceCache {
 public:
  explicit ReferenceCache(CacheGeometry geo) : geo_(geo) {
    lines_.resize(static_cast<std::size_t>(geo_.sets) * geo_.ways);
    plru_applicable_ = geo_.policy == ReplacementPolicy::kTreePlru &&
                       (geo_.ways & (geo_.ways - 1)) == 0;
    if (plru_applicable_) plru_.assign(geo_.sets, 0);
  }

  bool access(std::uint64_t address) {
    ++accesses_;
    const std::size_t set = set_index(address);
    const std::size_t base = set * geo_.ways;
    const std::uint64_t tag = tag_of(address);
    for (std::size_t w = 0; w < geo_.ways; ++w) {
      Line& line = lines_[base + w];
      if (line.valid && line.tag == tag) {
        touch(set, base, w, /*is_insert=*/false);
        return true;
      }
    }
    ++misses_;
    const std::size_t victim = pick_victim(set, base);
    lines_[victim] = Line{tag, 0, true};
    touch(set, base, victim - base, /*is_insert=*/true);
    return false;
  }

  bool probe(std::uint64_t address) const {
    const std::size_t base = set_index(address) * geo_.ways;
    const std::uint64_t tag = tag_of(address);
    for (std::size_t w = 0; w < geo_.ways; ++w) {
      const Line& line = lines_[base + w];
      if (line.valid && line.tag == tag) return true;
    }
    return false;
  }

  void fill(std::uint64_t address) {
    const std::size_t set = set_index(address);
    const std::size_t base = set * geo_.ways;
    const std::uint64_t tag = tag_of(address);
    for (std::size_t w = 0; w < geo_.ways; ++w) {
      Line& line = lines_[base + w];
      if (line.valid && line.tag == tag) {
        touch(set, base, w, /*is_insert=*/false);
        return;
      }
    }
    const std::size_t victim = pick_victim(set, base);
    lines_[victim] = Line{tag, 0, true};
    touch(set, base, victim - base, /*is_insert=*/true);
  }

  void reset() {
    flush();
    tick_ = 0;
    accesses_ = 0;
    misses_ = 0;
    rand_state_ = 0x9E3779B97F4A7C15ULL;
  }

  void flush() {
    for (Line& line : lines_) line.valid = false;
    if (plru_applicable_) plru_.assign(geo_.sets, 0);
  }

  void pollute(double fraction, std::uint64_t mix) {
    if (fraction <= 0.0) return;
    const auto threshold = static_cast<std::uint64_t>(fraction * 1024.0);
    std::uint64_t h = mix | 1;
    for (Line& line : lines_) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      if ((h >> 33) % 1024 < threshold) line.valid = false;
    }
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
    bool valid = false;
  };

  std::size_t set_index(std::uint64_t address) const {
    return static_cast<std::size_t>((address / geo_.line_bytes) &
                                    (geo_.sets - 1));
  }
  std::uint64_t tag_of(std::uint64_t address) const {
    return (address / geo_.line_bytes) / geo_.sets;
  }

  std::size_t pick_victim(std::size_t set, std::size_t base) {
    for (std::size_t w = 0; w < geo_.ways; ++w)
      if (!lines_[base + w].valid) return base + w;
    switch (geo_.policy) {
      case ReplacementPolicy::kRandom:
        rand_state_ =
            rand_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        return base + ((rand_state_ >> 33) % geo_.ways);
      case ReplacementPolicy::kTreePlru:
        if (plru_applicable_) {
          const std::uint32_t bits = plru_[set];
          std::size_t node = 0;
          std::size_t lo = 0, span = geo_.ways;
          while (span > 1) {
            const bool right = (bits >> node) & 1u;
            span /= 2;
            if (right) lo += span;
            node = 2 * node + 1 + (right ? 1 : 0);
          }
          return base + lo;
        }
        [[fallthrough]];
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo: {
        std::size_t victim = base;
        std::uint64_t oldest = ~0ULL;
        for (std::size_t w = 0; w < geo_.ways; ++w) {
          if (lines_[base + w].stamp < oldest) {
            oldest = lines_[base + w].stamp;
            victim = base + w;
          }
        }
        return victim;
      }
    }
    return base;
  }

  void touch(std::size_t set, std::size_t base, std::size_t way,
             bool is_insert) {
    ++tick_;
    Line& line = lines_[base + way];
    switch (geo_.policy) {
      case ReplacementPolicy::kLru:
        line.stamp = tick_;
        break;
      case ReplacementPolicy::kFifo:
        if (is_insert) line.stamp = tick_;
        break;
      case ReplacementPolicy::kRandom:
        break;
      case ReplacementPolicy::kTreePlru:
        if (plru_applicable_) {
          std::uint32_t& bits = plru_[set];
          std::size_t node = 0;
          std::size_t lo = 0, span = geo_.ways;
          while (span > 1) {
            span /= 2;
            const bool right = way >= lo + span;
            if (right) {
              bits &= ~(1u << node);
              lo += span;
            } else {
              bits |= (1u << node);
            }
            node = 2 * node + 1 + (right ? 1 : 0);
          }
        } else {
          line.stamp = tick_;
        }
        break;
    }
  }

  CacheGeometry geo_;
  std::vector<Line> lines_;
  std::vector<std::uint32_t> plru_;
  bool plru_applicable_ = false;
  std::uint64_t tick_ = 0;
  std::uint64_t rand_state_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t accesses_ = 0;
  std::uint64_t misses_ = 0;
};

struct DiffCase {
  std::uint32_t sets;
  std::uint32_t ways;
  ReplacementPolicy policy;
};

void PrintTo(const DiffCase& c, std::ostream* os) {
  *os << c.sets << "x" << c.ways << " " << replacement_policy_name(c.policy);
}

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  for (const auto policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kFifo,
        ReplacementPolicy::kRandom, ReplacementPolicy::kTreePlru}) {
    // 16 x 3 is the tree-PLRU fallback to true LRU (non-power-of-two ways).
    for (const auto& [sets, ways] :
         {std::pair{1u, 8u}, std::pair{16u, 1u}, std::pair{16u, 3u},
          std::pair{16u, 4u}, std::pair{64u, 8u}, std::pair{512u, 16u}})
      cases.push_back({sets, ways, policy});
  }
  return cases;
}

class CacheDifferential : public testing::TestWithParam<DiffCase> {};

TEST_P(CacheDifferential, MatchesReferenceOnRandomOperationStreams) {
  const DiffCase& dc = GetParam();
  constexpr std::uint32_t kLine = 64;
  CacheGeometry geo{dc.sets, dc.ways, kLine, dc.policy};
  // Half again as many distinct lines as the cache holds, so streams mix
  // hits, cold misses and evictions; one access in five goes to the kernel
  // half of the address space, where tags carry the high bits. Flushes,
  // resets and pollution are rare enough that a large cache still fills.
  const std::uint64_t capacity = std::uint64_t{dc.sets} * dc.ways;
  const std::uint64_t lines = capacity + capacity / 2 + 3;
  const std::uint64_t steps = 4 * lines + 2000;
  const double rare = 1.0 / static_cast<double>(capacity);
  const double p_pollute = std::min(0.02, 2.0 * rare);
  const double p_flush = std::min(0.005, 0.5 * rare);
  constexpr std::uint64_t kHighBase = 0xffff'8000'0000ULL;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Cache cache(geo);
    ReferenceCache ref(geo);
    Rng rng(seed * 7919 + dc.sets * 31 + dc.ways);
    for (std::uint64_t step = 0; step < steps; ++step) {
      std::uint64_t addr = rng.below(lines) * kLine + rng.below(kLine);
      if (rng.chance(0.2)) addr += kHighBase;
      const double op = rng.uniform();
      if (op < p_pollute) {
        const double fraction = static_cast<double>(rng.below(5)) / 4.0;
        const std::uint64_t mix = rng();
        cache.pollute(fraction, mix);
        ref.pollute(fraction, mix);
      } else if (op < p_pollute + p_flush) {
        cache.flush();
        ref.flush();
      } else if (op < p_pollute + 2 * p_flush) {
        cache.reset();
        ref.reset();
      } else if (op < 0.7) {
        ASSERT_EQ(cache.access(addr), ref.access(addr))
            << "access seed " << seed << " step " << step;
      } else if (op < 0.85) {
        cache.fill(addr);
        ref.fill(addr);
      } else {
        ASSERT_EQ(cache.probe(addr), ref.probe(addr))
            << "probe seed " << seed << " step " << step;
      }
      ASSERT_EQ(cache.accesses(), ref.accesses()) << "step " << step;
      ASSERT_EQ(cache.misses(), ref.misses()) << "step " << step;
    }
    // Every line's residency agrees at the end of the stream.
    for (std::uint64_t l = 0; l < lines; ++l) {
      ASSERT_EQ(cache.probe(l * kLine), ref.probe(l * kLine)) << l;
      ASSERT_EQ(cache.probe(kHighBase + l * kLine),
                ref.probe(kHighBase + l * kLine))
          << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndGeometries, CacheDifferential, testing::ValuesIn(diff_cases()),
    [](const testing::TestParamInfo<DiffCase>& tpi) {
      std::string name(replacement_policy_name(tpi.param.policy));
      for (char& ch : name)
        if (ch == '-') ch = '_';
      return name + "_" + std::to_string(tpi.param.sets) + "x" +
             std::to_string(tpi.param.ways);
    });

}  // namespace
}  // namespace hmd::sim
