// Inline conservative-cycle meter — the devirtualized core of the
// conservative hardware model.
//
// The contract-grade cycle metric is a pure function of (a) how many
// instructions ran, weighted by worst-case per-op costs, and (b) the
// per-packet must-hit L1D analysis over the access stream, in order.
// hw::ConservativeModel exposes exactly that arithmetic behind the virtual
// TraceSink interface, but TraceSink::fast_meter() hands the meter itself
// to the two callers on the hot path: the decoded interpreter, and every
// ir::CostMeter (dslib calls and rx/tx framing, in both engines). They
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
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/cache.h"

namespace bolt::ir {

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

  explicit ConservativeCycleMeter(const Costs& costs)
      : costs_(costs), l1_(kL1Bytes, kL1Ways) {}

  /// The contract may assume nothing about state left by earlier packets:
  /// the must-hit analysis starts cold every packet.
  void begin_packet() {
    l1_.clear();
    last_line_ = kNoLine;
    packet_start_ = cycles_;
  }

  /// `n` instructions, `n_mul` of them imul (the rest ALU-priced):
  /// metered dslib/framework work is (n, 0), one stateless IR instruction
  /// is (1, op == kMul), and the decoded engine adds a packet's whole
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

  std::uint64_t total_cycles() const { return cycles_; }
  std::uint64_t packet_cycles() const { return cycles_ - packet_start_; }

 private:
  /// No line index reaches this (line = addr / 64 < 2^58).
  static constexpr std::uint64_t kNoLine = ~0ULL;

  Costs costs_;
  support::Cache l1_;  ///< must-hit analysis state, cleared per packet
  std::uint64_t last_line_ = kNoLine;  ///< line of the previous access
  std::uint64_t cycles_ = 0;
  std::uint64_t packet_start_ = 0;
};

}  // namespace bolt::ir
