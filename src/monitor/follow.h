// Streaming (daemon-mode) contract monitor — the long-lived service shape
// of the batch MonitorEngine.
//
// Where MonitorEngine::run() pulls a finished trace from a chunk source,
// StreamMonitor is fed by its caller (from a tailed pcap, a ring, or a live
// source), closes delta windows as packet timestamps advance, and surfaces
// each closed window through a callback as soon as it closes — delta JSONL
// lines, drift alerts and fleet partials all flow incrementally instead of
// at end-of-run. Both run the one chunk driver (monitor/driver.h): windows
// are assigned at read time, each partition accumulates per window, and a
// window is folded in partition order once every owned partition has
// stepped past it. So a daemon drained by SIGTERM emits byte-for-byte the
// report and delta stream a batch run over the same packets would have
// produced, at any thread count and wherever the chunks break
// (tests/test_fleet.cpp pins this).
//
// Threads: feed() with a chunk of several views hands it to up to
// `options.threads` workers (0 = one per hardware thread, never more than
// the partitions this instance owns) and returns while the chunk is still
// being stepped; the views must stay valid until the next feed() (or
// drain(), idle_flush(), finish()) returns, which a PcapTail with
// MonitorEngine::kChunksInFlight windows guarantees. A one-view feed()
// steps on the calling thread.
//
// Fleet mode: N instances each feed the FULL traffic stream but own a
// disjoint subset of the flow-affine partitions (default: partition p
// belongs to instance p % instances). Ownership is partition-aligned, so
// each instance's per-flow state, epoch sweeps and occupancy marks evolve
// exactly as they would inside a single monitor — which is what makes the
// merged fleet report byte-identical to the single-instance one
// (obs/fleet.h folds the per-window partials back together). The same
// partition serves the threads inside one process and the instances of a
// fleet.
//
// Memory is bounded for unbounded runs: the open window's accumulators per
// partition, closed windows fold into running totals and are dropped,
// per-flow state ages out through the same deterministic epoch clock as
// the batch engine, and the drift detector's per-series rings are
// fixed-size. The stream is expected to be window-monotone (timestamps may
// jitter within a window; a packet older than the open window is clamped
// into it and counted in WindowStats::late_packets — pcap tails and NIC
// streams satisfy this).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/accum.h"
#include "monitor/driver.h"
#include "monitor/monitor.h"
#include "monitor/partition.h"
#include "net/packet.h"
#include "obs/telemetry.h"
#include "support/span.h"

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
  /// run accumulates as one window that only finish() closes.
  StreamMonitor(const perf::Contract& contract, const perf::PcvRegistry& reg,
                const MonitorEngine::TargetFactory& factory,
                MonitorOptions options, FleetOptions fleet = {},
                WindowFn on_window = nullptr);
  ~StreamMonitor();
  StreamMonitor(const StreamMonitor&) = delete;
  StreamMonitor& operator=(const StreamMonitor&) = delete;

  /// Feeds the next packet of the global stream and steps it on the calling
  /// thread (every instance of a fleet feeds the same stream; non-owned
  /// packets advance the window clock and the global index, nothing else).
  void feed(const net::PacketView& packet);

  /// Feeds the next chunk of the global stream (see the file comment for
  /// threads and how long its views must live).
  void feed(support::Span<const net::PacketView> chunk);

  /// Steps every packet fed so far and emits the windows they close.
  void drain();

  /// Idle-flush hook: drains, then emits the open window provisionally (no
  /// drift detection, `provisional = true`) so a quiet input does not hold
  /// the last window hostage. Repeated calls without new data are no-ops.
  void idle_flush();

  /// Closes the open window and renders the final report + observations.
  /// Call exactly once; feed() must not be called afterwards.
  StreamResult finish();

  std::uint64_t packets_fed() const { return driver_.packets(); }

  /// Point-in-time telemetry for the daemon's live --metrics-out refresh:
  /// drains, then returns the running counters plus the merge-time facts of
  /// the closed windows (the open window is not folded in yet). Telemetry
  /// is execution-shaped and never byte-pinned, so a mid-run snapshot is
  /// fine.
  obs::MonitorTelemetry telemetry_snapshot();

  const std::vector<std::string>& entry_names() const {
    return compiled_.entry_names;
  }
  const MonitorOptions& options() const { return options_; }
  const FleetOptions& fleet() const { return fleet_; }
  std::uint64_t delta_window_ns() const { return compiled_.delta_window_ns; }

 private:
  /// One flag per partition: owned by this instance.
  std::vector<char> owned() const;

  MonitorEngine::TargetFactory factory_;
  MonitorOptions options_;
  FleetOptions fleet_;
  const CompiledContract compiled_;
  ChunkDriver driver_;
};

}  // namespace bolt::monitor
