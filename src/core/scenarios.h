// Ready-made NF instances — program + stateful state + dispatcher + method
// table wired together. Shared by the test suite, the benchmark harnesses,
// and the examples, so every consumer of an "evaluation NF" configures it
// the same way the contracts were generated for.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/bolt.h"
#include "core/runner.h"
#include "dslib/bridge_state.h"
#include "dslib/lb_state.h"
#include "dslib/lpm_state.h"
#include "dslib/method.h"
#include "dslib/nat_state.h"
#include "ir/program.h"
#include "nf/framework.h"
#include "perf/pcv.h"

namespace bolt::core {

/// One fully wired NF: the stateless program, the concrete stateful objects
/// (behind the dispatcher), and the models+contracts method table.
struct NfInstance {
  std::string name;
  ir::Program program;
  dslib::MethodTable methods;
  std::unique_ptr<dslib::DispatchEnv> env;
  std::shared_ptr<void> state;  ///< keeps the state object alive

  /// Long-running-operation observers (empty for static-state NFs like the
  /// LPM routers). `state_occupancy` reports live flow/MAC entries;
  /// `state_expire` sweeps entries stale as of `now_ns` off-path (silent
  /// metering — operational maintenance, not attributable to any packet)
  /// and returns how many were evicted. The monitor's deterministic epoch
  /// clock drives both.
  std::function<std::size_t()> state_occupancy;
  std::function<std::uint64_t(net::TimestampNs now_ns)> state_expire;

  /// View for the contract generator.
  NfAnalysis analysis() const {
    NfAnalysis a;
    a.name = name;
    a.programs = {&program};
    a.methods = &methods;
    return a;
  }

  /// Concrete runner (measurement side). `sink` may be null. `engine`
  /// selects the execution fast path (see ir::EngineKind; sinks without a
  /// fast_meter() fall back to the reference engine regardless).
  std::unique_ptr<NfRunner> make_runner(
      const nf::FrameworkCosts& fw = nf::framework_full(),
      ir::TraceSink* sink = nullptr,
      ir::EngineKind engine = ir::EngineKind::kNative) const {
    ir::InterpreterOptions opts;
    nf::apply_framework(opts, fw);
    opts.sink = sink;
    opts.engine = engine;
    return std::make_unique<NfRunner>(
        std::vector<const ir::Program*>{&program}, env.get(), opts);
  }

  /// Typed access to the stateful object (BridgeState, NatState, ...).
  template <typename T>
  T& state_as() const {
    return *static_cast<T*>(state.get());
  }
};

/// Canonical evaluation configurations (scaled-down versions of the paper's
/// testbed tables; see DESIGN.md §2 on scaling).
dslib::MacTable::Config default_bridge_config();
dslib::NatState::Config default_nat_config();
dslib::LbState::Config default_lb_config();

/// The canonical route set installed in the named "lpm" target (DIR-24-8).
/// Both lookup tiers must be reachable by traffic — <=24-bit prefixes
/// resolve in one lookup, longer ones in two — so the set spans both, and
/// 198.18.0.0/15 covers the synthetic workload generators' destination
/// space. Deterministic and shared so the adversarial synthesiser and
/// tests can aim packets at specific tiers.
struct DirLpmRoute {
  std::uint32_t prefix = 0;  ///< host order, low bits zero
  int length = 0;
  std::uint16_t port = 0;
};
const std::vector<DirLpmRoute>& dir_lpm_routes();

NfInstance make_bridge(perf::PcvRegistry& reg,
                       const dslib::MacTable::Config& config);
NfInstance make_nat(perf::PcvRegistry& reg,
                    const dslib::NatState::Config& config);
NfInstance make_lb(perf::PcvRegistry& reg, const dslib::LbState::Config& config);
NfInstance make_simple_lpm(perf::PcvRegistry& reg);
NfInstance make_dir_lpm(perf::PcvRegistry& reg);

}  // namespace bolt::core
