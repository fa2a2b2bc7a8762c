// ContractGenerator — BOLT's Algorithm 2, end to end:
//
//   1. substitute symbolic models for stateful methods,
//   2. symbolically execute the stateless NF (or NF chain) exhaustively,
//   3. solve each path's constraints for a concrete input packet,
//   4. replay that input concretely, tracing instructions, memory accesses,
//      and conservative cycles for the stateless code, and
//   5. fold in the manual method contracts at every stateful call site,
//      selecting the case recorded by the model.
//
// Paths are then grouped into input classes (stateless class tags +
// stateful case labels) with conservative coalescing; families of unrolled
// loop paths are folded back into closed forms linear in the loop count
// (how the static router's "79*n + 646" arises).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dslib/method.h"
#include "hw/models.h"
#include "ir/program.h"
#include "nf/framework.h"
#include "perf/contract.h"
#include "perf/pcv.h"
#include "symbex/executor.h"

namespace bolt::core {

struct BoltOptions {
  symbex::ExecutorOptions executor;
  nf::FrameworkCosts framework = nf::framework_full();
  hw::CycleCosts cycle_costs = hw::default_cycle_costs();
  /// No code reads this; it goes with the next benchmark change.
  std::size_t threads = 0;
  /// Conservative coalescing of paths into classes (ablation: off keeps one
  /// contract entry per path).
  bool coalesce = true;
  /// Fold unrolled-loop path families into expressions linear in the trip
  /// count (PCV named after the loop).
  bool linearize_loops = true;
};

/// What to analyse: a chain of programs plus the stateful method table
/// (models + manual contracts) they call into.
struct NfAnalysis {
  std::string name;
  std::vector<const ir::Program*> programs;
  const dslib::MethodTable* methods = nullptr;
};

/// Per-path detail, kept for inspection and for the experiments.
struct PathReport {
  std::string class_key;
  symbex::PathAction action = symbex::PathAction::kDrop;
  bool solved = false;
  /// The solved witness input (GetInputsForPath materialised): the concrete
  /// packet whose replay produced this path. Valid iff `solved` — this is
  /// what the adversarial workload synthesiser (src/adversary) seeds each
  /// class's traffic from.
  net::Packet input;
  std::uint64_t stateless_instructions = 0;
  std::uint64_t stateless_accesses = 0;
  std::uint64_t stateless_cycles = 0;  ///< conservative, from the replay trace
  std::map<std::int64_t, std::uint64_t> loop_trips;
  perf::MetricExprs exprs;  ///< full path expressions (stateless + stateful)
};

struct GenerationResult {
  perf::Contract contract;
  std::vector<PathReport> path_reports;
  symbex::ExecutorStats executor_stats;
  std::size_t total_paths = 0;
  std::size_t unsolved_paths = 0;
};

class ContractGenerator {
 public:
  ContractGenerator(perf::PcvRegistry& reg, BoltOptions options = {});

  GenerationResult generate(const NfAnalysis& nf);

 private:
  perf::PcvRegistry& reg_;
  BoltOptions options_;
};

/// Reconstructs the concrete input packet for a solved path (paper Alg. 2
/// line 6: GetInputsForPath). Exposed for tests.
net::Packet packet_from_path(const symbex::PathResult& path);

}  // namespace bolt::core
