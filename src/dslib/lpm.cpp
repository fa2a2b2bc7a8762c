#include "dslib/lpm.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "dslib/costs.h"
#include "support/assert.h"

namespace bolt::dslib {
namespace {

constexpr std::size_t kTbl24Entries = std::size_t{1} << 24;
/// tbl24 (2-byte entries) followed by depth24 (1 byte each).
constexpr std::size_t kTbl24MapBytes = kTbl24Entries * 3;

}  // namespace

LpmTrie::LpmTrie() : arena_base_(ir::ArenaAllocator::next_base()) {
  Node root;
  root.has_route = true;  // default route, port 0
  nodes_.push_back(root);
}

void LpmTrie::insert(std::uint32_t prefix, int length, std::uint16_t port) {
  BOLT_CHECK(length >= 0 && length <= 32, "bad prefix length");
  std::int32_t node = 0;
  for (int i = 0; i < length; ++i) {
    const int bit = (prefix >> (31 - i)) & 1;
    if (nodes_[node].child[bit] == kNil) {
      nodes_[node].child[bit] = static_cast<std::int32_t>(nodes_.size());
      nodes_.push_back(Node{});
    }
    node = nodes_[node].child[bit];
  }
  nodes_[node].port = port;
  nodes_[node].has_route = true;
}

LpmTrie::LookupResult LpmTrie::lookup(std::uint32_t addr,
                                      ir::CostMeter& meter) const {
  LookupResult result;
  std::int32_t node = 0;
  std::uint16_t best_port = nodes_[0].port;
  meter.metered_instructions(cost::kTrieFixed);
  meter.mem_read(arena_base_, 16);  // root node
  for (int i = 0; i < 32; ++i) {
    const int bit = (addr >> (31 - i)) & 1;
    if (nodes_[node].child[bit] == kNil) break;
    node = nodes_[node].child[bit];
    ++result.matched_length;
    // The per-bit cost depends on the bit value (the compiler unfolds the
    // pointer arithmetic into different jump sequences — §3.2). The
    // contract coalesces to kTrieStepHi.
    meter.metered_instructions(bit != 0 ? cost::kTrieStepHi : cost::kTrieStepLo);
    meter.mem_read(arena_base_ + 16ULL * node, 16, true);
    if (nodes_[node].has_route) best_port = nodes_[node].port;
  }
  result.port = best_port;
  return result;
}

void LpmDir24_8::Unmap::operator()(std::uint16_t* tbl24) const {
  ::munmap(tbl24, kTbl24MapBytes);
}

LpmDir24_8::LpmDir24_8() : arena_base_(ir::ArenaAllocator::next_base()) {
  // Anonymous pages are zero until written, so no fill is needed. Not
  // calloc: glibc raises its mmap threshold after the first large free,
  // and a later table would come from the heap and be zeroed by memset.
  void* map = ::mmap(nullptr, kTbl24MapBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  BOLT_CHECK(map != MAP_FAILED, std::string("LpmDir24_8: cannot map tbl24: ") +
                                    std::strerror(errno));
  // Advisory: a huge page would commit 2 MB around each written entry.
  ::madvise(map, kTbl24MapBytes, MADV_NOHUGEPAGE);
  tbl24_.reset(static_cast<std::uint16_t*>(map));
  depth24_ = reinterpret_cast<std::uint8_t*>(tbl24_.get() + kTbl24Entries);
}

std::uint16_t LpmDir24_8::allocate_tbl8(std::uint16_t fill_port,
                                        std::uint8_t fill_depth) {
  const std::size_t group = tbl8_.size() / 256;
  BOLT_CHECK(group < 0x8000, "tbl8 pool exhausted");
  tbl8_.resize(tbl8_.size() + 256, fill_port);
  depth8_.resize(depth8_.size() + 256, fill_depth);
  return static_cast<std::uint16_t>(group);
}

void LpmDir24_8::insert(std::uint32_t prefix, int length, std::uint16_t port) {
  BOLT_CHECK(length >= 1 && length <= 32, "bad prefix length");
  BOLT_CHECK((port & kIndirect) == 0, "port value too large");
  if (length <= 24) {
    const std::uint32_t first = prefix >> 8;
    const std::uint32_t span = 1u << (24 - length);
    for (std::uint32_t i = 0; i < span; ++i) {
      const std::uint32_t slot = first + i;
      if ((tbl24_[slot] & kIndirect) != 0) {
        // Refine the existing tbl8 group where this shorter prefix loses.
        const std::uint16_t group = tbl24_[slot] & 0x7fff;
        for (std::uint32_t j = 0; j < 256; ++j) {
          const std::size_t t8 = std::size_t(group) * 256 + j;
          if (depth8_[t8] <= length) {
            tbl8_[t8] = port;
            depth8_[t8] = static_cast<std::uint8_t>(length);
          }
        }
      } else if (depth24_[slot] <= length) {
        tbl24_[slot] = port;
        depth24_[slot] = static_cast<std::uint8_t>(length);
      }
    }
    return;
  }
  // length > 24: one tbl24 slot, expanded into a tbl8 group.
  const std::uint32_t slot = prefix >> 8;
  std::uint16_t group;
  if ((tbl24_[slot] & kIndirect) != 0) {
    group = tbl24_[slot] & 0x7fff;
  } else {
    group = allocate_tbl8(tbl24_[slot], depth24_[slot]);
    tbl24_[slot] = static_cast<std::uint16_t>(kIndirect | group);
  }
  const std::uint32_t first = prefix & 0xff;
  const std::uint32_t span = 1u << (32 - length);
  for (std::uint32_t i = 0; i < span; ++i) {
    const std::size_t t8 = std::size_t(group) * 256 + first + i;
    if (depth8_[t8] <= length) {
      tbl8_[t8] = port;
      depth8_[t8] = static_cast<std::uint8_t>(length);
    }
  }
}

LpmDir24_8::LookupResult LpmDir24_8::lookup(std::uint32_t addr,
                                            ir::CostMeter& meter) const {
  LookupResult result;
  meter.metered_instructions(cost::kDir24Lookup);
  const std::uint32_t slot = addr >> 8;
  meter.mem_read(arena_base_ + 2ULL * slot, 2);
  const std::uint16_t entry = tbl24_[slot];
  if ((entry & kIndirect) == 0) {
    result.port = entry;
    result.tier = LookupCase::kOneLookup;
    return result;
  }
  meter.metered_instructions(cost::kDir8Lookup);
  const std::size_t t8 = std::size_t(entry & 0x7fff) * 256 + (addr & 0xff);
  meter.mem_read(arena_base_ + 2ULL * kTbl24Entries + 2ULL * t8, 2);
  result.port = tbl8_[t8];
  result.tier = LookupCase::kTwoLookups;
  return result;
}

}  // namespace bolt::dslib
