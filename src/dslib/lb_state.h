// LbState — the Maglev-like load balancer's stateful side: a flow table
// caching flow -> backend decisions, the Maglev ring, and backend health.
#pragma once

#include <cstdint>

#include "dslib/flow_table.h"
#include "dslib/maglev.h"
#include "dslib/method.h"
#include "perf/pcv.h"

namespace bolt::dslib {

class LbState {
 public:
  enum Method : std::int64_t {
    kExpire = 0,
    kFlowLookup = 1,    ///< v0 = found, v1 = backend
    kBackendAlive = 2,  ///< arg0 = backend; v0 = alive
    kRingSelect = 3,    ///< new flow: ring walk + cache; v0 = backend
    kReselect = 4,      ///< cached backend died: ring walk + recache; v0 = backend
    kHeartbeat = 5,     ///< backend heartbeat datagram
  };

  struct Config {
    FlowTable::Config flow;
    MaglevRing::Config ring;
    std::uint16_t heartbeat_port = 7000;
  };

  LbState(const Config& config, perf::PcvRegistry& reg);

  void bind(DispatchEnv& env);
  static MethodTable method_table(perf::PcvRegistry& reg, const Config& config);

  FlowTable& flow_table() { return flow_; }
  MaglevRing& ring() { return ring_; }
  const Config& config() const { return config_; }

  /// Paper §5.1 LB1: pathological flow-table state.
  void synthesize_pathological(std::uint64_t probe_key, std::size_t count,
                               std::uint64_t stamp_ns);

 private:
  // The dispatchable methods (bind registers them).
  ir::CallOutcome call_expire(std::uint64_t, std::uint64_t,
                              const net::Packet& pkt, ir::CostMeter& meter);
  ir::CallOutcome call_flow_lookup(std::uint64_t, std::uint64_t,
                                   const net::Packet& pkt,
                                   ir::CostMeter& meter);
  ir::CallOutcome call_backend_alive(std::uint64_t backend, std::uint64_t,
                                     const net::Packet& pkt,
                                     ir::CostMeter& meter);
  ir::CallOutcome call_ring_select(std::uint64_t, std::uint64_t,
                                   const net::Packet& pkt,
                                   ir::CostMeter& meter);
  ir::CallOutcome call_reselect(std::uint64_t, std::uint64_t,
                                const net::Packet& pkt, ir::CostMeter& meter);
  ir::CallOutcome call_heartbeat(std::uint64_t, std::uint64_t,
                                 const net::Packet& pkt, ir::CostMeter& meter);
  /// A new flow's ring walk and cache (kRingSelect), or a recache after
  /// its backend died (kReselect, which must update the cached entry).
  ir::CallOutcome select(bool is_reselect, const net::Packet& pkt,
                         ir::CostMeter& meter);

  Config config_;
  FlowTable flow_;
  MaglevRing ring_;
  perf::PcvId c_, t_, e_, b_;
};

}  // namespace bolt::dslib
