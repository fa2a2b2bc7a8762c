// Router state wrappers: the Patricia-trie LPM (running example) and the
// DPDK-style DIR-24-8 LPM, as dispatchable stateful methods.
#pragma once

#include <cstdint>

#include "dslib/lpm.h"
#include "dslib/method.h"
#include "perf/pcv.h"

namespace bolt::dslib {

/// The paper's running-example router substrate (Tables 1 and 2).
class LpmTrieState {
 public:
  enum Method : std::int64_t {
    kLookup = 0,  ///< arg0 = dst IPv4 address; v0 = port
  };

  explicit LpmTrieState(perf::PcvRegistry& reg);

  void bind(DispatchEnv& env);
  static MethodTable method_table(perf::PcvRegistry& reg);

  LpmTrie& trie() { return trie_; }

 private:
  ir::CallOutcome call_lookup(std::uint64_t addr, std::uint64_t,
                              const net::Packet&, ir::CostMeter& meter);

  LpmTrie trie_;
  perf::PcvId l_;
};

/// The DPDK-style LPM of the paper's evaluation (LPM1/LPM2 classes).
class LpmDirState {
 public:
  enum Method : std::int64_t {
    kLookup = 0,  ///< arg0 = dst IPv4 address; v0 = port
  };

  explicit LpmDirState(perf::PcvRegistry& reg);

  void bind(DispatchEnv& env);
  static MethodTable method_table(perf::PcvRegistry& reg);

  LpmDir24_8& table() { return table_; }

 private:
  ir::CallOutcome call_lookup(std::uint64_t addr, std::uint64_t,
                              const net::Packet&, ir::CostMeter& meter);

  LpmDir24_8 table_;
};

}  // namespace bolt::dslib
