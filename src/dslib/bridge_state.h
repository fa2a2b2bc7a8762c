// BridgeState — the MAC bridge's stateful side: a MacTable with expiry,
// packaged as dispatchable methods with symbolic models and contracts.
#pragma once

#include <cstdint>

#include "dslib/mac_table.h"
#include "dslib/method.h"
#include "perf/pcv.h"

namespace bolt::dslib {

class BridgeState {
 public:
  enum Method : std::int64_t {
    kExpire = 0,
    kLearn = 1,   ///< arg0 = source MAC, arg1 = ingress port
    kLookup = 2,  ///< arg0 = destination MAC; v0 = found, v1 = port
  };

  BridgeState(const MacTable::Config& config, perf::PcvRegistry& reg);

  /// Registers this instance's handlers on a dispatcher.
  void bind(DispatchEnv& env);

  /// Models + manual contracts for the three methods.
  static MethodTable method_table(perf::PcvRegistry& reg,
                                  const MacTable::Config& config);

  MacTable& mac_table() { return mac_; }

  /// Paper §5.1 Br1: full table, all entries colliding with `probe_mac`'s
  /// bucket and tag, all stale as of `stamp_ns`.
  void synthesize_pathological(std::uint64_t probe_mac, std::size_t count,
                               std::uint64_t stamp_ns);

 private:
  // The dispatchable methods (bind registers them).
  ir::CallOutcome call_expire(std::uint64_t, std::uint64_t,
                              const net::Packet& pkt, ir::CostMeter& meter);
  ir::CallOutcome call_learn(std::uint64_t mac, std::uint64_t port,
                             const net::Packet& pkt, ir::CostMeter& meter);
  ir::CallOutcome call_lookup(std::uint64_t mac, std::uint64_t,
                              const net::Packet&, ir::CostMeter& meter);

  MacTable mac_;
  perf::PcvId c_, t_, e_, o_;
};

}  // namespace bolt::dslib
