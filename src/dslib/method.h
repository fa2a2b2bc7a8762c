// MethodSpec — everything BOLT needs to know about one stateful method:
// its symbolic model (used during symbolic execution) and its manually
// derived performance contract (folded in during replay, paper Alg. 2
// line 11). The concrete implementation lives in the composite state
// objects, which implement ir::StatefulEnv via DispatchEnv.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/stateful.h"
#include "perf/contract.h"
#include "symbex/model.h"

namespace bolt::dslib {

struct MethodSpec {
  std::string name;
  symbex::SymbolicModel model;
  perf::MethodContract contract;
};

/// Method id -> spec; shared between the symbolic executor (models) and the
/// contract generator (contracts).
using MethodTable = std::map<std::int64_t, MethodSpec>;

/// Concrete dispatcher: method id -> handler over the real structures.
/// Method ids are small and dense, so the handlers sit in a vector indexed
/// by id.
class DispatchEnv final : public ir::StatefulEnv {
 public:
  using Handler = std::function<ir::CallOutcome(
      std::uint64_t arg0, std::uint64_t arg1, const net::Packet& packet,
      ir::CostMeter& meter)>;

  void register_method(std::int64_t id, Handler handler);

  ir::CallOutcome call(std::int64_t method, std::uint64_t arg0,
                       std::uint64_t arg1, const net::Packet& packet,
                       ir::CostMeter& meter) override;

 private:
  std::vector<Handler> handlers_;
};

/// Shared PCV names used across the library, matching the paper's notation.
namespace pcv {
inline constexpr const char* kCollisions = "c";   ///< hash collisions
inline constexpr const char* kTraversals = "t";   ///< bucket traversals
inline constexpr const char* kExpired = "e";      ///< expired entries
inline constexpr const char* kOccupancy = "o";    ///< table occupancy
inline constexpr const char* kPrefixLen = "l";    ///< matched prefix length
inline constexpr const char* kIpOptions = "n";    ///< IP options in packet
inline constexpr const char* kAllocProbes = "s";  ///< allocator B scan probes
inline constexpr const char* kRingSteps = "b";    ///< Maglev ring walk steps
}  // namespace pcv

/// Interns the standard PCVs (idempotent) and returns nothing; callers use
/// reg.require(...) afterwards.
void intern_standard_pcvs(perf::PcvRegistry& reg);

}  // namespace bolt::dslib
