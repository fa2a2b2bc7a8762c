// NatState — the VigNAT-style NAT's stateful side: paired flow tables
// (internal five-tuple -> external port, external port -> internal
// endpoint), a pluggable port allocator, and coupled expiry that releases
// ports and reverse mappings.
#pragma once

#include <cstdint>
#include <memory>

#include "dslib/flow_table.h"
#include "dslib/method.h"
#include "dslib/port_allocator.h"
#include "perf/pcv.h"

namespace bolt::dslib {

class NatState {
 public:
  enum Method : std::int64_t {
    kExpire = 0,
    kLookupInt = 1,  ///< v0 = found, v1 = external port
    kLookupExt = 2,  ///< v0 = found, v1 = (internal ip << 16) | internal port
    kAddFlow = 3,    ///< v0 = ok, v1 = external port
  };

  enum class AllocatorKind { kA, kB };

  struct Config {
    FlowTable::Config flow;  ///< applies to both direction tables
    std::uint16_t first_external_port = 1024;
    AllocatorKind allocator = AllocatorKind::kA;
    std::uint32_t external_ip = 0xc6336401;  ///< 198.51.100.1
  };

  NatState(const Config& config, perf::PcvRegistry& reg);

  void bind(DispatchEnv& env);
  static MethodTable method_table(perf::PcvRegistry& reg, const Config& config);

  /// Coupled expiry sweep as of `now_ns`: every stale internal mapping is
  /// erased together with its reverse mapping, and its external port is
  /// released. Shared by the NF's own kExpire method (metered, feeds the
  /// e/t/c PCVs) and by the monitor's idle-epoch sweeps (silent meter).
  struct SweepResult {
    FlowTable::ExpireResult flow;
    std::uint64_t ext_walk = 0;        ///< reverse-map erase traversals
    std::uint64_t ext_collisions = 0;  ///< reverse-map erase collisions
  };
  SweepResult sweep_expired(std::uint64_t now_ns, ir::CostMeter& meter);

  FlowTable& internal_table() { return int_table_; }
  FlowTable& external_table() { return ext_table_; }
  PortAllocator& allocator() { return *allocator_; }
  const Config& config() const { return config_; }

  /// Paper §5.1 NAT1: full, fully colliding, fully stale state reachable by
  /// the probe flow key. Also marks the matching ports allocated so expiry
  /// frees them exactly as a real history would have left them.
  void synthesize_pathological(std::uint64_t probe_key, std::size_t count,
                               std::uint64_t stamp_ns);

 private:
  // The dispatchable methods (bind registers them).
  ir::CallOutcome call_expire(std::uint64_t, std::uint64_t,
                              const net::Packet& pkt, ir::CostMeter& meter);
  ir::CallOutcome call_lookup_int(std::uint64_t, std::uint64_t,
                                  const net::Packet& pkt,
                                  ir::CostMeter& meter);
  ir::CallOutcome call_lookup_ext(std::uint64_t, std::uint64_t,
                                  const net::Packet& pkt,
                                  ir::CostMeter& meter);
  ir::CallOutcome call_add_flow(std::uint64_t, std::uint64_t,
                                const net::Packet& pkt, ir::CostMeter& meter);

  Config config_;
  FlowTable int_table_;
  FlowTable ext_table_;
  std::unique_ptr<PortAllocator> allocator_;
  perf::PcvId c_, t_, e_, o_, s_;
};

}  // namespace bolt::dslib
