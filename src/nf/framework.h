// Per-packet framing costs of the packet-I/O framework — the reproduction's
// stand-in for DPDK + the ixgbe driver (paper §3.5, "Including DPDK and NIC
// driver code"). BOLT can analyse either just the NF (zero framing) or the
// full stack (these constants folded into every path).
#pragma once

#include <cstdint>

#include "ir/interp.h"

namespace bolt::nf {

struct FrameworkCosts {
  std::uint64_t rx_instructions = 120;
  std::uint64_t rx_accesses = 12;
  std::uint64_t tx_instructions = 90;
  std::uint64_t tx_accesses = 8;
  std::uint64_t drop_instructions = 40;
  std::uint64_t drop_accesses = 3;
};

/// NF-only analysis: the framework contributes nothing (paper's level 1).
inline FrameworkCosts framework_none() { return FrameworkCosts{0, 0, 0, 0, 0, 0}; }
/// Full-stack analysis (paper's level 2).
inline FrameworkCosts framework_full() { return FrameworkCosts{}; }

/// `fw` with its rx and tx costs raised by `pct` percent (drop costs kept):
/// what `bolt_cli monitor --inflate PCT` measures with, the canonical way
/// to make a contract's bounds fail.
inline FrameworkCosts framework_inflated(FrameworkCosts fw,
                                         std::uint64_t pct) {
  fw.rx_instructions += fw.rx_instructions * pct / 100;
  fw.rx_accesses += fw.rx_accesses * pct / 100;
  fw.tx_instructions += fw.tx_instructions * pct / 100;
  fw.tx_accesses += fw.tx_accesses * pct / 100;
  return fw;
}

/// Applies framework costs to interpreter options.
inline void apply_framework(ir::InterpreterOptions& options,
                            const FrameworkCosts& fw) {
  options.rx_instructions = fw.rx_instructions;
  options.rx_accesses = fw.rx_accesses;
  options.tx_instructions = fw.tx_instructions;
  options.tx_accesses = fw.tx_accesses;
  options.drop_instructions = fw.drop_instructions;
  options.drop_accesses = fw.drop_accesses;
}

// Wire offsets shared by the NF programs (Ethernet + IPv4, ihl=5).
inline constexpr std::uint64_t kOffEthDst = 0;
inline constexpr std::uint64_t kOffEthSrc = 6;
inline constexpr std::uint64_t kOffEtherType = 12;
inline constexpr std::uint64_t kOffIpVerIhl = 14;
inline constexpr std::uint64_t kOffIpProto = 23;
inline constexpr std::uint64_t kOffIpSrc = 26;
inline constexpr std::uint64_t kOffIpDst = 30;
inline constexpr std::uint64_t kOffL4Src = 34;  ///< when ihl == 5
inline constexpr std::uint64_t kOffL4Dst = 36;

/// The port id NFs use to mean "flood to every port".
inline constexpr std::uint64_t kFloodPort = 0xffff;

}  // namespace bolt::nf
