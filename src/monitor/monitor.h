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
//  * Run-to-completion partitions — the input arrives in chunks (one pcap
//    read window, or a slice of packets in memory); for each chunk, each
//    partition runs on one pool thread and goes through the whole
//    per-packet loop for its share of the chunk:
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
//    rows instead of per-packet tree walks (PerfExpr::eval stays as the
//    reference the VM is tested against in tests/test_expr_vm.cpp).
//
//  * Fixed state partitions — the stream is split into `partitions`
//    flow-affine sub-streams (RSS-style: flows hash to partitions, so
//    per-flow state in a partition sees a coherent history), each with a
//    freshly built NF instance. The partition is the only unit of work:
//    the partition count is part of the *semantics*, and `threads` (how
//    many partitions run concurrently) is a pure execution knob.
//    Statistics accumulate per partition and window, and each window is
//    merged in partition order when it closes; every accumulation is
//    order-independent
//    (sums, maxima under a total order, merge-order-independent quantile
//    sketches), so reports are byte-identical at any thread count — the
//    same determinism contract the contract generator enforces
//    (tests/test_monitor.cpp, tests/test_monitor_longrun.cpp).
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
#include "support/span.h"

namespace bolt::monitor {

/// Attribution slot value for packets no contract entry matched.
inline constexpr std::uint32_t kUnattributedEntry = ~0u;

struct CompiledContract;  // monitor/partition.h

struct MonitorOptions {
  /// Flow-affine state partitions, each with its own NF instance. Part of
  /// the monitor's semantics (reports at different partition counts
  /// legitimately differ; reports at different *thread* counts never do).
  std::size_t partitions = 8;
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
  /// Execution engine for the per-partition runners. Execution-only: the
  /// fast path (default) is report-byte-identical to the reference
  /// interpreter — tests/test_decoded.cpp proves it over the knob grid —
  /// and kReference exists as the oracle baseline for those tests and for
  /// bench's interp_decoded_speedup metric.
  ir::EngineKind engine = ir::EngineKind::kNative;
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
  /// gated at 5% by tests/test_monitor_timing.cpp.
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

  /// How many chunks of its input run() keeps in use at once.
  static constexpr std::size_t kChunksInFlight = 2;

  /// The next chunk of packets to monitor; empty at the end of the input.
  /// A chunk's views need stay valid only until the source has been
  /// called kChunksInFlight more times (a PcapTail with that many read
  /// windows hands out exactly such chunks), and a chunk holds fewer than
  /// 2^32 packets.
  using ChunkSource = std::function<support::Span<const net::PacketView>()>;

  /// Streams the packets `next` hands out through per-partition instances
  /// built by `factory`, and returns the merged report. The run is the
  /// chunk driver (monitor/driver.h) owning every partition, the same loop
  /// the daemon runs: its memory does not grow with the input, each
  /// chunk's packets are bucketed by partition, and the pool's threads step
  /// each partition over its share of each chunk, in order, with up to
  /// kChunksInFlight chunks in use. A partition's runner, open validation
  /// batches and window accumulators live for the whole run, so where the
  /// chunks break never changes a byte of the result
  /// (tests/test_monitor.cpp). Packets are never mutated: each partition
  /// copies one packet at a time into its reused scratch packet, as the NF
  /// rewrites headers.
  ///
  /// `attribution` (optional) receives one entry per packet, indexed by
  /// the packet's position in the whole input: the contract entry index
  /// the packet was attributed to, or kUnattributedEntry. This is the
  /// pre-attributed replay mode the adversarial synthesiser closes its
  /// loop with: a trace whose every packet carries an *intended* class can
  /// be checked packet-by-packet against what the monitor actually
  /// observed. Deterministic like the report (each partition writes only
  /// its own packet slots).
  ///
  /// `observations` (optional) receives the run's telemetry snapshot
  /// (counters collected when options.telemetry is set), the delta window
  /// stream (when options.delta_every > 0), and any drift alerts. None of
  /// it can change the returned report's bytes.
  MonitorReport run(const ChunkSource& next, const TargetFactory& factory,
                    std::vector<std::uint32_t>* attribution = nullptr,
                    obs::RunObservations* observations = nullptr) const;
  /// The same run over packets in memory, handed to the chunk loop in
  /// fixed slices.
  MonitorReport run(support::Span<const net::PacketView> packets,
                    const TargetFactory& factory,
                    std::vector<std::uint32_t>* attribution = nullptr,
                    obs::RunObservations* observations = nullptr) const;
  /// The same over owned packets (viewed in place, one slice at a time).
  MonitorReport run(const std::vector<net::Packet>& packets,
                    const TargetFactory& factory,
                    std::vector<std::uint32_t>* attribution = nullptr,
                    obs::RunObservations* observations = nullptr) const;

  /// Factory for a registered target name (core::make_named_target).
  /// Aborts at call time if the name is unknown.
  static TargetFactory named_factory(std::string name);

  const MonitorOptions& options() const { return options_; }

 private:
  MonitorOptions options_;
  std::unique_ptr<const CompiledContract> compiled_;
};

/// The partition a packet belongs to: a flow-affine hash over the Ethernet
/// pair and the five-tuple (packets of one flow always land in the same
/// partition). Reads both at fixed offsets without allocating, with the
/// validity rules of net::parse_ethernet / parse_ipv4 / parse_tcp /
/// parse_udp: the hash is mix64 over the MAC pair when the frame holds an
/// Ethernet header, re-mixed with FiveTuple::key() when it holds a TCP or
/// UDP over IPv4 five-tuple (net::extract_five_tuple's definition).
/// Membership is report semantics (tests/test_monitor.cpp holds the
/// parse-based formula as its oracle). Exposed for tests.
std::size_t partition_of(const net::PacketView& packet, std::size_t partitions);

}  // namespace bolt::monitor
