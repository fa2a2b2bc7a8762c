// Set-associative cache model with LRU replacement and O(1) epoch clear.
//
// Lives in support/ (header-only) so both the hardware models in hw/ and
// the decoded interpreter's inline conservative-cycle meter in ir/ can use
// it without a layering inversion: ir/ must not depend on hw/, but both sit
// above support/. Keeping the implementation inline also lets the decoded
// engine's per-access must-hit lookup inline into its dispatch loop instead
// of paying an out-of-line call per memory access.
//
// Each set has a header {epoch, used}: its live ways are exactly the first
// `used` slots, and a header stamped with an older epoch reads as an empty
// set. A probe therefore scans only the live ways, a miss fills the next
// free way while there is one, and only a full set evicts its least
// recently used way. That is the same hit/miss/victim sequence as scanning
// every way for "the first way with the minimum LRU rank" with empty ways
// ranking 0: empty ways only ever exist as a suffix, and live LRU ticks are
// unique. clear() bumps the epoch, so it stays O(1) however many sets the
// cache has — the conservative meter clears once per packet.
#pragma once

#include <cstdint>
#include <vector>

#include "support/assert.h"

namespace bolt::support {

inline constexpr std::uint32_t kCacheLineBytes = 64;

inline std::uint64_t line_of(std::uint64_t addr) {
  return addr / kCacheLineBytes;
}

class Cache {
 public:
  /// `size_bytes` total capacity; `ways` associativity; LRU within sets.
  Cache(std::size_t size_bytes, std::size_t ways) : ways_(ways) {
    BOLT_CHECK(ways >= 1, "cache needs at least one way");
    const std::size_t lines = size_bytes / kCacheLineBytes;
    BOLT_CHECK(lines >= ways, "cache too small for its associativity");
    sets_ = lines / ways;
    BOLT_CHECK((sets_ & (sets_ - 1)) == 0,
               "cache set count must be a power of 2");
    headers_.resize(sets_);
    slots_.resize(sets_ * ways_);
  }

  /// Looks up (and on miss inserts) the line; returns true on hit.
  bool access(std::uint64_t line) {
    const std::size_t set = set_of(line);
    const std::size_t used = live_ways(set);
    Way* const ways = &slots_[set * ways_];
    ++tick_;
    for (std::size_t w = 0; w < used; ++w) {
      if (ways[w].line == line) {
        ways[w].lru = tick_;
        return true;
      }
    }
    fill(set, used, ways, line);
    return false;
  }

  /// Inserts without counting as a demand access (prefetch fills).
  void insert(std::uint64_t line) {
    const std::size_t set = set_of(line);
    const std::size_t used = live_ways(set);
    Way* const ways = &slots_[set * ways_];
    ++tick_;
    for (std::size_t w = 0; w < used; ++w) {
      if (ways[w].line == line) return;  // resident; prefetch is a no-op
    }
    fill(set, used, ways, line);
  }

  /// True if the line is currently resident (no LRU update).
  bool contains(std::uint64_t line) const {
    const std::size_t set = set_of(line);
    const std::size_t used = live_ways(set);
    const Way* const ways = &slots_[set * ways_];
    for (std::size_t w = 0; w < used; ++w) {
      if (ways[w].line == line) return true;
    }
    return false;
  }

  /// Empties every set in O(1): headers stamped with an older epoch read
  /// as empty, exactly as if the whole array had been rewritten.
  void clear() {
    ++epoch_;
    tick_ = 0;
  }

  std::size_t sets() const { return sets_; }
  std::size_t ways() const { return ways_; }

 private:
  struct Way {
    std::uint64_t line = 0;
    std::uint64_t lru = 0;  // higher = more recently used; unique per epoch
  };
  struct SetHeader {
    std::uint64_t epoch = 0;  // the set's ways are live only at this epoch
    std::uint64_t used = 0;   // live ways: slots [0, used) of the set
  };

  std::size_t set_of(std::uint64_t line) const { return line & (sets_ - 1); }

  std::size_t live_ways(std::size_t set) const {
    const SetHeader& h = headers_[set];
    return h.epoch == epoch_ ? static_cast<std::size_t>(h.used) : 0;
  }

  /// Places a missing line: the next free way, else the LRU way.
  void fill(std::size_t set, std::size_t used, Way* ways, std::uint64_t line) {
    if (used < ways_) {
      ways[used] = Way{line, tick_};
      headers_[set] = SetHeader{epoch_, used + 1};
      return;
    }
    Way* victim = ways;
    for (std::size_t w = 1; w < ways_; ++w) {
      if (ways[w].lru < victim->lru) victim = &ways[w];
    }
    *victim = Way{line, tick_};
  }

  std::size_t sets_;
  std::size_t ways_;
  std::uint64_t tick_ = 0;
  std::uint64_t epoch_ = 1;  // bumped by clear(); header epoch 0 = never used
  std::vector<SetHeader> headers_;  // sets_
  std::vector<Way> slots_;          // sets_ * ways_
};

}  // namespace bolt::support
