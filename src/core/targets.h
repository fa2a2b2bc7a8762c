// Named analysis/measurement targets — one registry of "the NFs this
// artifact ships", shared by the CLI, the contract monitor, and the bench
// harnesses, so a contract generated for "nat" and a monitor shard
// validating "nat" are guaranteed to wire the very same configuration.
//
// A target is either instance-backed (stateful NF behind the dispatcher)
// or a chain of stateless programs (firewall, static router, fw+router).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/runner.h"
#include "core/scenarios.h"
#include "dslib/method.h"
#include "ir/program.h"
#include "net/packet.h"
#include "nf/framework.h"
#include "perf/pcv.h"

namespace bolt::core {

/// One analysable + runnable NF (or chain). Move-only (owns live state).
struct NfTarget {
  std::string name;
  NfInstance instance;                 ///< when stateful
  std::vector<ir::Program> stateless;  ///< when a stateless program/chain
  dslib::MethodTable no_methods;       ///< empty table for stateless chains
  bool is_stateless = false;

  /// View for the contract generator.
  NfAnalysis analysis() const;

  /// The chain's programs, in execution order.
  std::vector<const ir::Program*> programs() const;

  /// Method table used for class-key construction (empty when stateless).
  const dslib::MethodTable& methods() const {
    return is_stateless ? no_methods : instance.methods;
  }

  /// Concrete runner (measurement side). `sink` may be null. `engine`
  /// selects the execution fast path (see ir::EngineKind).
  std::unique_ptr<NfRunner> make_runner(
      const nf::FrameworkCosts& fw = nf::framework_full(),
      ir::TraceSink* sink = nullptr,
      ir::EngineKind engine = ir::EngineKind::kNative) const;

  /// The name contracts generated for this target carry (the analysis
  /// name; differs from the registry name for the LPM targets). Used to
  /// cross-check stored contract artifacts against the monitored target.
  std::string contract_name() const {
    return is_stateless ? name : instance.name;
  }

  /// Long-running-operation observers (see NfInstance); no-ops for
  /// stateless chains and static-state NFs.
  std::size_t state_occupancy() const {
    return !is_stateless && instance.state_occupancy
               ? instance.state_occupancy()
               : 0;
  }
  std::uint64_t expire_state(net::TimestampNs now_ns) const {
    return !is_stateless && instance.state_expire
               ? instance.state_expire(now_ns)
               : 0;
  }
  bool has_state_observers() const {
    return !is_stateless && static_cast<bool>(instance.state_occupancy);
  }
};

/// Builds the target registered under `name`:
///   bridge | nat | nat-b | lb | lpm | lpm-simple | firewall | router |
///   fw+router
/// PCVs are interned into `reg`. Returns false for unknown names.
bool make_named_target(const std::string& name, perf::PcvRegistry& reg,
                       NfTarget& out);

/// The names make_named_target accepts, for usage strings.
const std::vector<std::string>& named_targets();

/// The `bolt_cli monitor --workload KIND --packets COUNT` traffic for
/// target `nf`: uniform | churn | zipf | bridge | attack | heartbeat |
/// longrun | drift. An empty kind picks the target's default (bridge
/// traffic for the bridge, heavy-tailed flows otherwise); an unknown kind
/// returns no packets.
std::vector<net::Packet> monitor_workload(const std::string& nf,
                                          std::string kind,
                                          std::size_t count);

}  // namespace bolt::core
