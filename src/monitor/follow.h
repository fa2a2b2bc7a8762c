// Streaming (daemon-mode) contract monitor — the long-lived service shape
// of the batch MonitorEngine.
//
// Where MonitorEngine::run() consumes a finished trace, StreamMonitor is
// fed one packet at a time (from a tailed pcap, a ring, or a live source),
// closes delta windows as packet timestamps advance, and surfaces each
// closed window through a callback the moment it closes — delta JSONL
// lines, drift alerts and fleet partials all flow incrementally instead of
// at end-of-run. finish() renders the final report through the exact same
// build_report path as the batch engine, so a daemon drained by SIGTERM
// emits byte-for-byte the report a batch run over the same packets would
// have produced (tests/test_fleet.cpp pins this).
//
// Fleet mode: N instances each feed the FULL traffic stream but own a
// disjoint subset of the flow-affine partitions (default: partition p
// belongs to instance p % instances). Ownership is partition-aligned, so
// each instance's per-flow state, epoch sweeps and occupancy marks evolve
// exactly as they would inside a single monitor — which is what makes the
// merged fleet report byte-identical to the single-instance one
// (obs/fleet.h folds the per-window partials back together).
//
// Memory is bounded for unbounded runs: one open window of accumulators,
// closed windows fold into running totals and are dropped, per-flow state
// ages out through the same deterministic epoch clock as the batch engine,
// and the drift detector's per-series rings are fixed-size. The stream is
// expected to be window-monotone (timestamps may jitter within a window; a
// packet older than the open window is clamped into it and counted in
// WindowStats::late_packets — pcap tails and NIC streams satisfy this).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/accum.h"
#include "monitor/monitor.h"
#include "monitor/partition.h"
#include "net/packet.h"
#include "obs/telemetry.h"
#include "perf/expr_vm.h"

namespace bolt::monitor {

/// Fleet placement for one streaming instance.
struct FleetOptions {
  /// This instance's id, in [0, instances).
  std::uint32_t instance = 0;
  /// Total instances the partition space is split across. 1 = the whole
  /// monitor in one process (every partition owned).
  std::uint32_t instances = 1;
  /// Optional explicit partition -> owning instance map (size must equal
  /// MonitorOptions::partitions). Empty = partition p belongs to
  /// instance p % instances.
  std::vector<std::uint32_t> owners;
};

/// Per-window run bookkeeping outside the per-class statistics. Sums,
/// minima and maxima only — fleet partials carry one per closed window and
/// the merger folds them in any order.
struct WindowStats {
  std::uint64_t packets = 0;        ///< owned packets landed in this window
  std::uint64_t unattributed = 0;
  std::uint64_t first_unattributed = 0;
  bool any_unattributed = false;
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t expired_idle = 0;
  std::uint64_t high_water = 0;
  /// Owned packets whose timestamp fell before the open window (clamped
  /// into it). Diagnostic only — a healthy monotone stream has zero.
  std::uint64_t late_packets = 0;
};

/// A window handed to the on-window callback at close (or idle flush). The
/// accumulator and stats pointers are valid only for the callback's
/// duration.
struct ClosedWindow {
  std::uint64_t window = 0;
  std::uint64_t window_ns = 0;
  /// True for an idle-flush emission: the window is still open and will be
  /// emitted again (authoritatively, with drift detection) when it closes.
  bool provisional = false;
  /// True when the window holds attributed traffic: `delta` is then the
  /// rendered window, exactly what the batch delta stream would contain.
  bool has_delta = false;
  obs::DeltaWindow delta;
  const std::vector<ClassAccum>* accums = nullptr;  ///< per contract entry
  const WindowStats* stats = nullptr;
};

struct StreamResult {
  MonitorReport report;
  obs::RunObservations observations;  ///< alerts + telemetry (deltas were
                                      ///< streamed through the callback)
};

class StreamMonitor {
 public:
  using WindowFn = std::function<void(const ClosedWindow&)>;

  /// `contract` and `reg` must outlive the monitor (same contract-side
  /// artifacts as MonitorEngine). Windows close on packet timestamps when
  /// options.delta_every > 0 and options.epoch_ns > 0; otherwise the whole
  /// run accumulates as one unemitted window and only finish() reports.
  StreamMonitor(const perf::Contract& contract, const perf::PcvRegistry& reg,
                const MonitorEngine::TargetFactory& factory,
                MonitorOptions options, FleetOptions fleet = {},
                WindowFn on_window = nullptr);
  ~StreamMonitor();
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Feeds the next packet of the global stream (every instance of a fleet
  /// feeds the same stream; non-owned packets advance the window clock and
  /// the global index, nothing else).
  void feed(const net::Packet& packet);

  /// Idle-flush hook: emits the open window provisionally (no drift
  /// detection, `provisional = true`) so a quiet input does not hold the
  /// last window hostage. Repeated calls without new data are no-ops.
  void idle_flush();

  /// Closes the open window and renders the final report + observations.
  /// Call exactly once; feed() must not be called afterwards.
  StreamResult finish();

  std::uint64_t packets_fed() const { return next_index_; }

  /// Point-in-time telemetry for the daemon's live --metrics-out refresh:
  /// the running counters plus current merge-time facts (closed-window
  /// state only — the open window is not folded in yet). Telemetry is
  /// execution-shaped and never byte-pinned, so a mid-run snapshot is fine.
  obs::MonitorTelemetry telemetry_snapshot() const;

  const std::vector<std::string>& entry_names() const {
    return compiled_.entry_names;
  }
  const MonitorOptions& options() const { return options_; }
  const FleetOptions& fleet() const { return fleet_; }
  std::uint64_t delta_window_ns() const { return compiled_.delta_window_ns; }

 private:
  struct WindowData;  ///< the open window's accumulators + stats

  bool owned(std::size_t partition) const;
  /// The runner for partition `p`, built on first use.
  PartitionRunner& partition(std::size_t p);
  void close_open(bool provisional);

  MonitorEngine::TargetFactory factory_;
  MonitorOptions options_;
  FleetOptions fleet_;
  WindowFn on_window_;
  const CompiledContract compiled_;
  bool track_state_ = false;

  std::vector<std::unique_ptr<PartitionRunner>> partitions_;
  std::unique_ptr<WindowData> open_;
  bool have_open_ = false;
  std::uint64_t open_window_ = 0;
  bool open_dirty_ = false;  ///< data since the last (provisional) emit

  std::vector<ClassAccum> total_accums_;  ///< merged closed windows
  RunTotals totals_;
  obs::DriftDetector detector_;
  std::vector<obs::DriftAlert> alerts_;
  std::uint64_t windows_emitted_ = 0;
  obs::MonitorTelemetry tel_;

  std::uint64_t next_index_ = 0;  ///< global packet index (all instances
                                  ///< agree: every instance feeds the full
                                  ///< stream)
  std::vector<std::uint64_t> row_buf_;  ///< reused dense PCV row
  perf::BatchScratch scratch_;          ///< reused expression-eval scratch
  bool finished_ = false;
};

}  // namespace bolt::monitor
