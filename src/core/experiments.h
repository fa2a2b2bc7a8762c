// The paper's evaluation scenarios (§5.1): fourteen (NF, packet-class)
// pairs — NAT1-4, Br1-3, LB1-5, LPM1-2 — each packaged as an NF instance,
// optional synthesised state, a warm-up trace, and a measurement trace.
// The benchmark binaries for Figure 1 and Table 3 iterate these.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/distiller.h"
#include "core/scenarios.h"
#include "net/packet.h"
#include "perf/pcv.h"

namespace bolt::core {

struct Scenario {
  std::string id;           ///< e.g. "NAT2"
  std::string description;  ///< paper wording for the class
  NfInstance nf;
  std::vector<net::Packet> warmup;   ///< processed but not measured
  std::vector<net::Packet> measure;  ///< the evaluated packet class
  /// Runs after warm-up, before measurement (e.g. kill LB backends).
  std::function<void(NfInstance&)> post_warmup;
};

/// All fourteen ids in paper order.
std::vector<std::string> all_scenario_ids();

/// Builds one scenario. Aborts on unknown id.
Scenario make_scenario(const std::string& id, perf::PcvRegistry& reg);

/// Outcome of running a scenario against its generated contract.
struct ScenarioResult {
  std::string id;
  std::int64_t predicted_ic = 0;
  std::uint64_t measured_ic = 0;
  std::int64_t predicted_ma = 0;
  std::uint64_t measured_ma = 0;
  std::int64_t predicted_cycles = 0;
  std::uint64_t measured_cycles = 0;
  std::size_t contract_entries = 0;
  std::size_t total_paths = 0;

  double ic_overestimate() const {
    return measured_ic == 0 ? 0.0
                            : static_cast<double>(predicted_ic) /
                                  static_cast<double>(measured_ic);
  }
  double ma_overestimate() const {
    return measured_ma == 0 ? 0.0
                            : static_cast<double>(predicted_ma) /
                                  static_cast<double>(measured_ma);
  }
  double cycles_ratio() const {
    return measured_cycles == 0 ? 0.0
                                : static_cast<double>(predicted_cycles) /
                                      static_cast<double>(measured_cycles);
  }
};

/// Generates the NF's contract, replays warm-up + measurement traffic on
/// the concrete NF (with the realistic hardware simulator attached), and
/// compares the worst measured costs against the worst contract prediction
/// among the observed input classes at the distilled PCV bindings.
ScenarioResult run_scenario(Scenario& scenario, perf::PcvRegistry& reg,
                            const BoltOptions& options = {});

/// Parallel experiment driver: builds and runs each scenario concurrently
/// (scenarios share nothing — each gets its own PcvRegistry and NF
/// instance) and returns results in `ids` order, so sweeps are
/// deterministic at any thread count. `threads` is the sweep's width on
/// the shared pool (0 = one per hardware thread). Each scenario's
/// contract generation is serial on its sweep thread: the sweep is the
/// parallelism.
std::vector<ScenarioResult> run_scenarios(const std::vector<std::string>& ids,
                                          const BoltOptions& options = {},
                                          std::size_t threads = 0);

/// Convenience: the full fourteen-scenario paper sweep, in parallel.
std::vector<ScenarioResult> run_all_scenarios(const BoltOptions& options = {},
                                              std::size_t threads = 0);

}  // namespace bolt::core
