// The chunk driver — the one loop that steps monitored traffic, shared by
// the batch engine (MonitorEngine::run) and the daemon (StreamMonitor).
//
// The caller feeds chunks of packet views in stream order. For each chunk
// the driver, on the caller's thread:
//
//  * gives every packet its delta window, in stream order. Windows close on
//    packet timestamps: a packet older than the open window is clamped into
//    it and counted in WindowStats::late_packets, so no window membership
//    depends on scheduling or on where the chunks break;
//  * gives every packet its global index and buckets the packets of the
//    partitions it owns into reused per-partition lists of chunk-local
//    indices (a fleet instance owns a subset; the batch engine owns all).
//
// Each owned partition then steps its share of the chunk through one
// PartitionTask that lives for the whole run: its PartitionRunner, its open
// validation batches, and the accumulators of the window it is in. When a
// partition steps past a window it validates its open batches and hands
// the window's accumulators over. A window closes once every owned
// partition has stepped past it: its accumulators are folded in partition
// order, the delta window is rendered (drift detector included) and the
// window goes to the on-window callback. Closes run on the feeding thread,
// one at a time, in window order. Every accumulation is order-independent,
// so neither the thread count nor the chunk boundaries change a byte.
//
// Threads: with one worker, or for a one-view chunk, the caller steps the
// chunk itself before feed() returns. Otherwise up to `workers - 1` pool
// threads (started on the first such chunk) step partitions while the
// caller reads on; kChunksInFlight chunks may be in use at once, so a
// partition may run one chunk ahead of another. feed() returns once at
// most the chunk it was handed is still being stepped, so a chunk's views
// must stay valid until the next feed() (or drain(), idle_flush(),
// finish()) returns — what a PcapTail with kChunksInFlight windows gives.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "monitor/accum.h"
#include "monitor/monitor.h"
#include "net/packet.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "obs/telemetry.h"
#include "support/span.h"

namespace bolt::monitor {

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

  void merge(const WindowStats& other);
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

class ChunkDriver {
 public:
  using WindowFn = std::function<void(const ClosedWindow&)>;

  /// `compiled`, `options` and `factory` must outlive the driver. `owned`
  /// has one flag per partition. `attribution` (optional) receives one
  /// entry per packet fed, in stream order (kUnattributedEntry for packets
  /// of partitions not owned).
  ChunkDriver(const CompiledContract& compiled, const MonitorOptions& options,
              const MonitorEngine::TargetFactory& factory,
              std::vector<char> owned, WindowFn on_window,
              std::vector<std::uint32_t>* attribution = nullptr);
  ~ChunkDriver();
  ChunkDriver(const ChunkDriver&) = delete;
  ChunkDriver& operator=(const ChunkDriver&) = delete;

  /// Feeds the next chunk of the stream (see the file comment for how long
  /// its views must live). Holds fewer than 2^32 packets.
  void feed(support::Span<const net::PacketView> chunk);

  /// Steps every chunk fed so far and closes the windows they complete.
  void drain();

  /// Drains, then emits the open window provisionally (a throwaway drift
  /// detector, `provisional = true`) if owned packets landed since the last
  /// emission; otherwise does nothing.
  void idle_flush();

  /// Drains, closes the open window and renders the report. Call once;
  /// nothing may be fed afterwards.
  MonitorReport finish();

  std::uint64_t packets() const { return packets_; }
  std::uint64_t windows_emitted() const { return windows_emitted_; }
  const std::vector<obs::DriftAlert>& alerts() const { return alerts_; }
  /// The partitions' counters folded, plus the merge-time facts of the
  /// closed windows. Drains first.
  obs::MonitorTelemetry telemetry();

 private:
  class PartitionTask;
  struct Slot;

  /// Reads `chunk` into its slot: windows, indices, partition buckets.
  Slot& bucket(support::Span<const net::PacketView> chunk);
  /// Steps `slot`, which bucket() just filled: on this thread with one
  /// worker or when `on_caller`, else on the workers.
  void dispatch(Slot& slot, bool on_caller);
  /// Steps every owned partition's share of `slot` on this thread.
  void step_inline(Slot& slot);
  /// Starts the pool workers on first use; stop_workers() joins them.
  void start_workers();
  void stop_workers();
  /// The worker loop: steps the partition furthest behind until stopped.
  void work();
  /// Steps up to `limit` packets of partition `p`'s next chunk with the
  /// lock released; the chunk counts as done once its share is stepped.
  void step(std::size_t p, std::size_t limit,
            std::unique_lock<std::mutex>& lock);
  /// Steps partitions on this thread and waits until at most `in_flight`
  /// chunks are still being stepped (lock held).
  void help_until(std::size_t in_flight, std::unique_lock<std::mutex>& lock);
  /// The idle partition furthest behind with a chunk to step, or the
  /// partition count when there is none (lock held).
  std::size_t pick() const;
  std::uint64_t all_done() const;  ///< chunks every owned partition stepped
  /// Closes the windows of every chunk all partitions are done with.
  void consume_done();
  void consume(Slot& slot);
  /// Renders and hands one window to the callback; an authoritative one is
  /// then folded into the run totals.
  void emit(std::uint64_t window, const std::vector<ClassAccum>& accums,
            const WindowStats& stats, bool provisional);

  const CompiledContract& cc_;
  const MonitorOptions& options_;
  const MonitorEngine::TargetFactory& factory_;
  const std::vector<char> owned_;
  std::vector<std::size_t> owned_list_;  ///< owned partitions, in order
  WindowFn on_window_;
  std::vector<std::uint32_t>* attribution_;
  std::vector<std::unique_ptr<PartitionTask>> tasks_;  ///< null if not owned
  std::size_t workers_ = 1;

  // Reader side (the feeding thread only).
  std::uint64_t packets_ = 0;  ///< global index of the next packet
  bool have_open_ = false;
  std::uint64_t open_window_ = 0;
  std::uint64_t open_late_ = 0;  ///< owned late packets in the open window
  bool dirty_ = false;  ///< owned packets since the last emission
  std::uint64_t chunks_consumed_ = 0;
  bool finished_ = false;

  // Window closes (the feeding thread only).
  std::vector<ClassAccum> total_accums_;
  RunTotals totals_;
  obs::DriftDetector detector_;
  std::vector<obs::DriftAlert> alerts_;
  std::uint64_t windows_emitted_ = 0;
  std::vector<std::size_t> cursor_;  ///< consume()'s per-partition cursor

  std::array<std::unique_ptr<Slot>, MonitorEngine::kChunksInFlight> slots_;

  // Shared with the workers, guarded by mutex_ (slot contents are handed
  // over through chunks_read_ / chunks_done_).
  std::mutex mutex_;
  std::condition_variable changed_;
  std::uint64_t chunks_read_ = 0;
  std::vector<std::uint64_t> chunks_done_;  ///< per partition
  std::vector<char> busy_;                  ///< per partition
  bool stop_ = false;
  std::exception_ptr error_;  ///< the first exception a worker threw
  std::thread launcher_;      ///< runs the pool workers' parallel_for
};

}  // namespace bolt::monitor
