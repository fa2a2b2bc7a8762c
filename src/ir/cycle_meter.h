// Inline conservative-cycle meter — the devirtualized core of the
// conservative hardware model.
//
// The contract-grade cycle metric is a pure function of (a) how many
// instructions ran, weighted by worst-case per-op costs, and (b) the
// per-packet must-hit L1D analysis over the access stream, in order.
// hw::ConservativeModel exposes exactly that arithmetic behind the virtual
// TraceSink interface, but TraceSink::fast_meter() hands the meter itself
// to the callers on the hot path: the native engine, and every
// ir::CostMeter (dslib calls and rx/tx framing, in every engine). They
// pay an inline cache probe per access and a plain add per instruction
// batch instead of a virtual call per event.
//
// Instruction cycles are order-independent sums, so they may be batched;
// access costs depend on L1 state and MUST be issued in execution order.
// hw::ConservativeModel delegates to this meter, so both paths share one
// implementation and cannot drift apart.
//
// MRU-line filter: about two thirds of accesses touch the same line as the
// access just before them. Such a line was the last one probed, so it is
// resident and already the most recently used way of its set; probing it
// again would charge an L1 hit and change no LRU order. The meter charges
// that hit without the probe. last_line_ is reset per packet (the cache
// is cleared then), and an access that straddles lines always probes.
//
// First-touch metering (charge_first_touch) is the probe-free special
// case. Lemma: if no L1 set receives more than kL1Ways distinct lines in a
// packet, LRU never evicts within it, so an access misses exactly when its
// line is touched for the first time since begin_packet(). A packet's
// access cycles are then l1 * (line touches) + (dram - l1) * (distinct
// lines), whatever the order. The native engine meets the precondition for
// programs that make no dslib call (kCall): every address such a program
// touches lies in one of four regions (packet bytes, locals, scratch, the
// framework's mbuf words; ir/cost.h), each based at a line index that is
// 0 mod kL1Sets and at most kFirstTouchLines lines long, so each region
// puts at most one line in any set and no set holds more than 4 < kL1Ways
// distinct lines. That holds when the packet, num_locals * 8 and
// scratch_slots * 8 are each at most kFirstTouchMaxBytes; a longer packet
// is probed. Chain rule: the lines touched so far live here, so the stages
// of a chain share them, but a packet must be metered first-touch from
// begin_packet() to its end or not at all — one probed access (a dslib
// call in any stage) and the touched-line sets no longer describe the L1.
// core::NfRunner therefore meters a chain first-touch only when every
// stage qualifies. The probing path stays the general implementation and
// the oracle (tests/test_hw.cpp checks the lemma against textbook LRU).
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/assert.h"
#include "support/cache.h"

namespace bolt::ir {

/// Set bits of `x`. A SWAR sum, not __builtin_popcountll: the build does
/// not assume the POPCNT instruction, so the builtin is an out-of-line
/// libgcc call on every first-touch packet.
inline std::uint64_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (x * 0x0101010101010101ULL) >> 56;
}

/// Lines touched in one packet, one bitmask per first-touch region (bit i
/// = the region's i-th line; see ConservativeCycleMeter).
struct LineMasks {
  std::uint64_t packet = 0;
  std::uint64_t locals = 0;
  std::uint64_t scratch = 0;
  std::uint64_t mbuf = 0;
};

class ConservativeCycleMeter {
 public:
  /// Worst-case per-instruction costs. hw::ConservativeModel sets alu, l1
  /// and dram from hw::CycleCosts; mul is the only definition of imul's
  /// worst case.
  struct Costs {
    std::uint64_t alu = 2;    ///< worst-case cycles per instruction
    std::uint64_t mul = 5;    ///< imul worst case
    std::uint64_t l1 = 4;     ///< proven-L1 access
    std::uint64_t dram = 200; ///< any unproven access
  };

  /// Geometry of the must-hit L1D (LRU within sets). The symbolic
  /// executor's branch-join rule reasons about the same geometry.
  static constexpr std::size_t kL1Bytes = 32 * 1024;
  static constexpr std::size_t kL1Ways = 8;
  static constexpr std::size_t kL1Sets =
      kL1Bytes / (kL1Ways * support::kCacheLineBytes);

  /// The first-touch lemma's region length: one line per L1 set.
  static constexpr std::size_t kFirstTouchLines = kL1Sets;
  static constexpr std::size_t kFirstTouchMaxBytes =
      kFirstTouchLines * support::kCacheLineBytes;
  static_assert(kFirstTouchLines <= 64, "a region's lines fit one mask");
  static_assert(kL1Ways >= 4, "four regions share a set without eviction");

  explicit ConservativeCycleMeter(const Costs& costs)
      : costs_(costs), l1_(kL1Bytes, kL1Ways) {}

  /// The contract may assume nothing about state left by earlier packets:
  /// the must-hit analysis starts cold every packet.
  void begin_packet() {
    l1_.clear();
    last_line_ = kNoLine;
    touched_ = {};
    packet_start_ = cycles_;
  }

  /// `n` instructions, `n_mul` of them imul (the rest ALU-priced):
  /// metered dslib/framework work is (n, 0), one stateless IR instruction
  /// is (1, op == kMul), and the fast engines add a packet's whole
  /// stateless count at once.
  void add_instructions(std::uint64_t n, std::uint64_t n_mul = 0) {
    cycles_ += (n - n_mul) * costs_.alu + n_mul * costs_.mul;
  }

  /// One memory access: per touched line, L1 cost if this packet provably
  /// keeps the line resident (LRU simulation), DRAM cost otherwise.
  void access(std::uint64_t addr, std::uint32_t size) {
    const std::uint64_t first = support::line_of(addr);
    const std::uint64_t last =
        support::line_of(addr + (size == 0 ? 0 : size - 1));
    if (first == last && first == last_line_) {
      cycles_ += costs_.l1;
      return;
    }
    for (std::uint64_t line = first; line <= last; ++line) {
      cycles_ += l1_.access(line) ? costs_.l1 : costs_.dram;
    }
    last_line_ = last;
  }

  /// `count` >= 1 accesses in a row of `size` bytes at `addr`, which lies
  /// in one line: the first is access(addr, size), and each repeat is the
  /// MRU filter's hit. What `count` calls of access() charge.
  void access_repeated(std::uint64_t addr, std::uint32_t size,
                       std::uint64_t count) {
    access(addr, size);
    cycles_ += (count - 1) * costs_.l1;
  }

  /// First-touch metering (see the file comment): `touches` line touches
  /// (a line-straddling access counts two) over the lines in `lines`, which
  /// join the lines this packet touched before. Exact only if every access
  /// since begin_packet() came through here.
  void charge_first_touch(const LineMasks& lines, std::uint64_t touches) {
    BOLT_CHECK(last_line_ == kNoLine,
               "first-touch charge in a packet the L1 probe has metered");
    const std::uint64_t fresh =
        fresh_lines(touched_.packet, lines.packet) +
        fresh_lines(touched_.locals, lines.locals) +
        fresh_lines(touched_.scratch, lines.scratch) +
        fresh_lines(touched_.mbuf, lines.mbuf);
    cycles_ += (touches - fresh) * costs_.l1 + fresh * costs_.dram;
  }

  std::uint64_t total_cycles() const { return cycles_; }
  std::uint64_t packet_cycles() const { return cycles_ - packet_start_; }

 private:
  /// No line index reaches this (line = addr / 64 < 2^58).
  static constexpr std::uint64_t kNoLine = ~0ULL;

  /// Lines of `lines` not yet in `touched`, which gains them.
  static std::uint64_t fresh_lines(std::uint64_t& touched,
                                   std::uint64_t lines) {
    const std::uint64_t fresh = lines & ~touched;
    touched |= lines;
    return popcount64(fresh);
  }

  Costs costs_;
  support::Cache l1_;  ///< must-hit analysis state, cleared per packet
  std::uint64_t last_line_ = kNoLine;  ///< line of the previous access
  LineMasks touched_;  ///< lines charged first-touch in this packet
  std::uint64_t cycles_ = 0;
  std::uint64_t packet_start_ = 0;
};

}  // namespace bolt::ir
