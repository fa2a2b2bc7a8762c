// Contract monitor — streaming runtime validation of performance contracts
// (the consumer side of the paper: operators and developers checking that
// an NF under real traffic actually stays inside its predicted bounds).
//
// The engine streams a packet trace through the concrete NfRunner,
// classifies every packet into its contract input class (the same
// class-key language the generator and the Distiller speak), evaluates the
// per-class bound for each metric at the packet's induced PCVs, and
// aggregates per-class statistics: packet counts, violation counts,
// headroom histograms and quantile sketches, and worst offenders with
// reproducer packet indices.
//
// Operator mode: the engine validates against a perf::Contract regardless
// of where it came from — freshly generated, or a *stored* artifact loaded
// through perf/contract_io (`bolt_cli monitor --contract FILE.json`), in
// which case no symbolic execution happens at all.
//
// Four design points make it fast AND deterministic:
//
//  * Run-to-completion work queues — each queue runs on one pool thread
//    and takes each of its partitions through the whole per-packet loop:
//    execute (run the NF, collect PCVs/counters) -> attribute (resolve the
//    observed class key to a contract entry, allocation-free) -> validate
//    (evaluate the entry's compiled bounds over a batch of same-class
//    packets and accumulate statistics). The per-partition part of that
//    loop is monitor::PartitionRunner (monitor/partition.h), the same core
//    the streaming monitor and the adversary's shadow step packets
//    through. Rows land in per-entry structure-of-arrays batch buffers, so
//    expression evaluation is amortised per batch rather than paid per
//    packet. (An earlier staged variant handed batches to a separate
//    validate thread over SPSC rings; it lost to run-to-completion on every
//    measured workload and was removed — docs/PERFORMANCE.md.)
//
//  * Compiled expressions — contract polynomials are flattened once into
//    perf::CompiledExpr bytecode and evaluated in batches over dense PCV
//    rows instead of per-packet tree walks (bench/monitor_throughput.cpp
//    measures the difference; PerfExpr::eval stays as the reference the
//    VM is tested against in tests/test_expr_vm.cpp).
//
//  * Fixed state partitions — the stream is split into `partitions`
//    flow-affine sub-streams (RSS-style: flows hash to partitions, so
//    per-flow state in a partition sees a coherent history), each with a
//    freshly built NF instance. The partition count is part of the
//    *semantics*; `shards` (how partitions are grouped into work queues),
//    `grouping` (the placement policy), `threads` (how many queues run
//    concurrently) and `batch` (rows per validation batch) are pure
//    execution knobs. Statistics accumulate per work queue and are merged
//    once at end of run; every accumulation is order-independent (sums,
//    maxima under a total order, merge-order-independent quantile
//    sketches), so reports are byte-identical at any shard x thread x
//    grouping x batch combination — the same determinism contract the
//    contract generator enforces (tests/test_monitor.cpp,
//    tests/test_monitor_longrun.cpp).
//
//  * A deterministic epoch clock — driven by packet timestamps, never by
//    wall-clock: when a partition's traffic crosses an `epoch_ns`
//    boundary, the engine sweeps that partition's stale flow/NF state
//    (reusing the dslib::FlowTable expiry substrate, silently metered —
//    maintenance is not attributable to a packet) and tracks the
//    occupancy high-water mark. A simulated week of traffic thus runs in
//    bounded state, and the report says so (state_high_water,
//    state_expired_idle).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/targets.h"
#include "hw/models.h"
#include "monitor/report.h"
#include "net/packet.h"
#include "nf/framework.h"
#include "obs/telemetry.h"
#include "perf/contract.h"
#include "perf/pcv.h"

namespace bolt::monitor {

/// Attribution slot value for packets no contract entry matched.
inline constexpr std::uint32_t kUnattributedEntry = ~0u;

struct CompiledContract;  // monitor/partition.h

/// How partitions are grouped into work queues. Execution-only — grouping
/// can change wall-clock, never report bytes (partitions compute the same
/// result wherever they run; the merge is in partition order).
enum class ShardGrouping : std::uint8_t {
  /// Partition p joins queue p % shards. Fine for uniform traffic.
  kRoundRobin = 0,
  /// LPT scheduling: partitions sorted by queue length (descending, ties by
  /// lower partition id) are each placed on the currently-lightest queue —
  /// the classic longest-processing-time heuristic. Under skewed traffic
  /// (one hot partition, e.g. an adversarial trace hammering a single RSS
  /// queue) round-robin can lump hot partitions onto one shard; this
  /// spreads them.
  kLongestQueueFirst = 1,
};

struct MonitorOptions {
  /// Flow-affine state partitions, each with its own NF instance. Part of
  /// the monitor's semantics (reports at different partition counts
  /// legitimately differ; reports at different shard or *thread* counts
  /// never do).
  std::size_t partitions = 8;
  /// Work queues the partitions are grouped into. Execution only — it
  /// affects scheduling, never report bytes. 0 = one queue per partition.
  std::size_t shards = 0;
  /// Partition -> queue placement policy (execution only, like `shards`).
  ShardGrouping grouping = ShardGrouping::kRoundRobin;
  /// Worker threads (0 = one per hardware thread). Execution only.
  std::size_t threads = 0;
  /// Deterministic epoch clock granularity (packet-timestamp time). At
  /// every boundary crossing the engine expires the partition's stale
  /// state and samples its occupancy. 0 disables epoch maintenance (state
  /// then only ages out through the NF's own expiry calls).
  std::uint64_t epoch_ns = 1'000'000'000;
  /// Per-packet framework cost applied on the *measurement* side. The
  /// contract was generated for some framework level; measuring with a
  /// different (inflated) one is the canonical violation-injection test.
  nf::FrameworkCosts framework = nf::framework_full();
  hw::CycleCosts cycle_costs = hw::default_cycle_costs();
  /// Check the cycles metric (attaches a conservative, contract-grade
  /// cycle model to every partition; ~2x slower than IC/MA-only
  /// monitoring).
  bool check_cycles = true;
  /// Worst offenders kept per class.
  std::size_t max_offenders = 4;
  /// Rows per validation batch: each work queue buffers attributed rows
  /// per contract entry and evaluates the entry's compiled bounds over this
  /// many packets of one input class at once. Execution-only — like
  /// shards/threads/grouping, the batch size can change wall-clock, never
  /// report bytes (rows are validated independently and accumulation is
  /// order-independent).
  std::size_t batch = 64;
  /// Execution engine for the per-partition runners. Execution-only: the
  /// decoded fast path (default) is report-byte-identical to the reference
  /// interpreter — tests/test_decoded.cpp proves it over the knob grid —
  /// and kReference exists as the oracle baseline for those tests and for
  /// bench's interp_decoded_speedup metric.
  ir::EngineKind engine = ir::EngineKind::kDecoded;
  /// Incremental reporting: emit one delta window every this many epochs
  /// (0 = off; needs epoch_ns > 0). Windows are keyed purely by packet
  /// timestamp (ts / (epoch_ns * delta_every)), so the delta stream is
  /// byte-deterministic across the execution knobs — and the *main* report
  /// is byte-identical at every delta_every setting (tests/test_obs.cpp).
  std::size_t delta_every = 0;
  /// Contract-drift detector tuning; runs over the delta stream whenever
  /// delta_every > 0 (obs/drift.h).
  obs::DriftOptions drift;
  /// Collect hot-path execution telemetry (obs::MonitorTelemetry) into the
  /// RunObservations passed to run(). Execution-only by construction:
  /// report bytes are identical with this on or off, and the overhead is
  /// gated at 5% by bench/monitor_throughput.cpp.
  bool telemetry = false;
  /// TEST ONLY — deliberately mis-measures the epoch-straddle case: when a
  /// partition's sweep fires on a packet whose timestamp lands *exactly* on
  /// the epoch boundary (ts == k * epoch_ns), one instruction of the sweep's
  /// maintenance cost leaks into that packet's measured count. This is the
  /// off-by-one bug class the violation hunter's straddle mutator exists to
  /// catch (epoch maintenance must never be attributable to a packet — see
  /// the epoch-clock contract above); the hunter's end-to-end falsification
  /// proof (tests/test_hunter.cpp, CI smoke) seeds it, hunts it, and
  /// delta-debugs the witness trace. Never set outside tests/CI.
  bool inject_straddle_bug = false;
};

class MonitorEngine {
 public:
  /// Builds a fresh target for one partition. PCVs are interned into the
  /// partition-local registry passed in; the engine maps them back to the
  /// contract's registry by name, so the factory does not need to share
  /// registries with the generation side.
  using TargetFactory = std::function<core::NfTarget(perf::PcvRegistry&)>;

  /// `contract` + `reg` are the contract-side artifacts (the registry the
  /// contract's PCV ids refer to) — generated in-process or loaded via
  /// perf::load_contract. Both must outlive the engine.
  MonitorEngine(const perf::Contract& contract, const perf::PcvRegistry& reg,
                MonitorOptions options = {});
  ~MonitorEngine();  // out of line: CompiledContract is incomplete here

  /// Streams `packets` through per-partition instances built by `factory`
  /// and returns the merged report. The input is not mutated (partitions
  /// run on copies, as the NF rewrites headers).
  ///
  /// `attribution` (optional) receives one entry per packet: the contract
  /// entry index the packet was attributed to, or kUnattributedEntry. This
  /// is the pre-attributed replay mode the adversarial synthesiser closes
  /// its loop with: a trace whose every packet carries an *intended* class
  /// can be checked packet-by-packet against what the monitor actually
  /// observed. Deterministic like the report (each partition writes only
  /// its own packet slots).
  ///
  /// `observations` (optional) receives the run's telemetry snapshot
  /// (counters collected when options.telemetry is set), the delta window
  /// stream (when options.delta_every > 0), and any drift alerts. None of
  /// it can change the returned report's bytes.
  MonitorReport run(const std::vector<net::Packet>& packets,
                    const TargetFactory& factory,
                    std::vector<std::uint32_t>* attribution = nullptr,
                    obs::RunObservations* observations = nullptr) const;

  /// Factory for a registered target name (core::make_named_target).
  /// Aborts at call time if the name is unknown.
  static TargetFactory named_factory(std::string name);

  const MonitorOptions& options() const { return options_; }

 private:
  struct SoaBatch;     ///< one structure-of-arrays batch of attributed rows
  struct QueueResult;  ///< per-work-queue accumulation (merged at end)
  class QueueTask;     ///< runs one work queue to completion

  MonitorOptions options_;
  std::unique_ptr<const CompiledContract> compiled_;
};

/// The partition a packet belongs to: a flow-affine hash over the Ethernet
/// pair and the five-tuple (packets of one flow always land in the same
/// partition). Exposed for tests.
std::size_t partition_of(const net::Packet& packet, std::size_t partitions);

}  // namespace bolt::monitor
