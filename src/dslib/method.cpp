#include "dslib/method.h"

#include "support/assert.h"

namespace bolt::dslib {

namespace {
constexpr std::int64_t kMaxMethodId = 1024;  ///< ids index a dense vector
}  // namespace

void DispatchEnv::add(std::int64_t id, void* self, Fn fn) {
  BOLT_CHECK(id >= 0 && id < kMaxMethodId, "method id out of range");
  const auto slot = static_cast<std::size_t>(id);
  if (handlers_.size() <= slot) handlers_.resize(slot + 1);
  BOLT_CHECK(handlers_[slot].fn == nullptr, "duplicate method id");
  handlers_[slot] = Handler{fn, self};
}

void DispatchEnv::missing(std::int64_t method) {
  support::fatal("no handler for stateful method " + std::to_string(method),
                 __FILE__, __LINE__);
}

void intern_standard_pcvs(perf::PcvRegistry& reg) {
  reg.intern(pcv::kCollisions, "hash collisions encountered");
  reg.intern(pcv::kTraversals, "hash bucket traversals");
  reg.intern(pcv::kExpired, "entries expired by this packet");
  reg.intern(pcv::kOccupancy, "table occupancy");
  reg.intern(pcv::kPrefixLen, "matched LPM prefix length");
  reg.intern(pcv::kIpOptions, "IP options in the packet");
  reg.intern(pcv::kAllocProbes, "port-allocator scan probes");
  reg.intern(pcv::kRingSteps, "Maglev ring walk steps");
}

}  // namespace bolt::dslib
