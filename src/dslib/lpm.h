// Longest-prefix-match structures.
//
// Two implementations, mirroring the paper:
//  * LpmTrie — the Patricia/bit-trie of the running example (§2.1). Lookup
//    cost is linear in the matched prefix length l: the contract is the
//    paper's Table 2 (4·l + 2 instructions, l + 1 memory accesses), with
//    the per-bit cost actually varying (3 or 4) under the hood — the
//    coalescing example of §3.2.
//  * LpmDir24_8 — DPDK-style two-tier table (§5.1): prefixes <= 24 bits
//    resolve with exactly one lookup, longer ones with exactly two.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/cost.h"

namespace bolt::dslib {

/// Bit-trie LPM (the paper's running example).
class LpmTrie {
 public:
  LpmTrie();

  void insert(std::uint32_t prefix, int length, std::uint16_t port);

  struct LookupResult {
    std::uint16_t port = 0;
    std::uint64_t matched_length = 0;  ///< PCV l: trie depth walked
  };
  LookupResult lookup(std::uint32_t addr, ir::CostMeter& meter) const;

  std::size_t node_count() const { return nodes_.size(); }

 private:
  static constexpr std::int32_t kNil = -1;
  struct Node {
    std::int32_t child[2] = {kNil, kNil};
    std::uint16_t port = 0;
    bool has_route = false;  ///< a prefix ends exactly here
  };
  std::uint64_t arena_base_;
  std::vector<Node> nodes_;  // node 0 is the root (default route port 0)
};

/// DPDK-style DIR-24-8 LPM: tbl24 (2^24 entries) + tbl8 groups.
///
/// tbl24 and its depth array (48 MB together) live in one private
/// anonymous mapping, so building a table commits only the pages its
/// routes write: untouched pages read as the kernel's shared zero page,
/// which is also an empty slot. Every target, monitor partition and hunt
/// replay builds one, and zero-filling 48 MB each time dominated their
/// setup. The simulated layout the meter sees is unchanged: tbl24 at
/// `arena_base_`, tbl8 right after its 2^24 2-byte entries.
///
/// Move-only: the mapping has one owner.
class LpmDir24_8 {
 public:
  LpmDir24_8();

  void insert(std::uint32_t prefix, int length, std::uint16_t port);

  enum class LookupCase { kOneLookup, kTwoLookups };
  struct LookupResult {
    std::uint16_t port = 0;
    LookupCase tier = LookupCase::kOneLookup;
  };
  LookupResult lookup(std::uint32_t addr, ir::CostMeter& meter) const;

  std::size_t tbl8_groups() const { return tbl8_.size() / 256; }

 private:
  // tbl24 entry encoding: bit 15 set -> bits 0..14 index a tbl8 group;
  // otherwise the entry is the egress port itself.
  static constexpr std::uint16_t kIndirect = 0x8000;
  struct Tbl24Meta {
    std::uint8_t depth = 0;  ///< prefix length that wrote this entry
  };
  std::uint16_t allocate_tbl8(std::uint16_t fill_port, std::uint8_t fill_depth);

  /// Unmaps the one mapping that holds tbl24 followed by depth24.
  struct Unmap {
    void operator()(std::uint16_t* tbl24) const;
  };

  std::uint64_t arena_base_;
  std::unique_ptr<std::uint16_t[], Unmap> tbl24_;
  std::uint8_t* depth24_;  ///< points into tbl24_'s mapping
  std::vector<std::uint16_t> tbl8_;
  std::vector<std::uint8_t> depth8_;
};

}  // namespace bolt::dslib
