#include "monitor/driver.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "monitor/partition.h"
#include "perf/expr_vm.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::monitor {

namespace {

/// Rows per validation batch: each partition buffers attributed rows per
/// contract entry and evaluates the entry's compiled bounds over this many
/// packets of one input class at once.
constexpr std::size_t kBatchRows = 64;

constexpr std::uint64_t kNoWindow = std::numeric_limits<std::uint64_t>::max();

/// How many packets of a partition's share a step takes: a worker takes
/// the whole share, the feeding thread a slice at a time.
constexpr std::size_t kWholeShare = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kCallerSlice = 256;

}  // namespace

void WindowStats::merge(const WindowStats& other) {
  packets += other.packets;
  if (other.any_unattributed &&
      (!any_unattributed || other.first_unattributed < first_unattributed)) {
    any_unattributed = true;
    first_unattributed = other.first_unattributed;
  }
  unattributed += other.unattributed;
  epoch_sweeps += other.epoch_sweeps;
  expired_idle += other.expired_idle;
  high_water = std::max(high_water, other.high_water);
  late_packets += other.late_packets;
}

/// One partition's accumulation for one window.
struct WindowAccum {
  std::uint64_t window = 0;
  std::vector<ClassAccum> accums;  ///< per contract entry
  WindowStats stats;
};

/// One chunk in use: its views, what the reader worked out about them, and
/// what the partitions hand back.
struct ChunkDriver::Slot {
  /// From `begin` (a chunk-local index) on, packets are in `window`.
  struct Segment {
    std::uint32_t begin = 0;
    std::uint64_t window = 0;
  };
  /// A window that ends in this chunk, and its owned late packets.
  struct Ended {
    std::uint64_t window = 0;
    std::uint64_t late = 0;
  };

  support::Span<const net::PacketView> chunk;
  std::uint64_t base = 0;  ///< global index of the chunk's first packet
  std::vector<Segment> segments;
  std::vector<Ended> ended;
  /// Every window below this one is over once the chunk is stepped.
  std::uint64_t end_window = 0;
  std::vector<std::vector<std::uint32_t>> work;  ///< per partition
  /// Per partition, the windows it stepped past in this chunk, in order.
  std::vector<std::vector<WindowAccum>> closed;
  std::vector<std::uint32_t> attribution;  ///< per packet, when asked for
};

/// One partition for the whole run: steps its share of each chunk through
/// its PartitionRunner (built on its first packet), appends attributed rows
/// to per-entry structure-of-arrays batches, and validates a batch in place
/// when it fills (evaluating the entry's compiled bounds over the whole
/// batch) or when the partition leaves the batch's window. Holds the
/// reusable buffers and expression scratch, so steady-state monitoring
/// performs no allocations outside window changes.
class ChunkDriver::PartitionTask {
 public:
  PartitionTask(const CompiledContract& cc, const MonitorOptions& options,
                const MonitorEngine::TargetFactory& factory)
      : cc_(cc), options_(options), factory_(factory) {
    pending_.resize(cc_.bounds.size());
    for (std::size_t entry = 0; entry < pending_.size(); ++entry) {
      pending_[entry].entry = static_cast<std::uint32_t>(entry);
    }
    // Unchecked cycles keep a zero bound column (never evaluated).
    for (auto& col : predicted_) col.assign(kBatchRows, 0);
  }

  /// Steps up to `limit` more of the partition's packets of `slot`
  /// (partition `p`). Once its whole share is stepped, hands over every
  /// window below the chunk's end window and returns true.
  bool run(Slot& slot, std::size_t p, std::size_t limit) {
    std::vector<WindowAccum>& closed = slot.closed[p];
    const std::vector<std::uint32_t>& local = slot.work[p];
    const std::size_t end =
        limit < local.size() - next_ ? next_ + limit : local.size();
    if (next_ < end) {
      PartitionRunner& part = runner();
      const std::size_t stride = cc_.slot_stride;
      for (; next_ < end; ++next_) {
        const std::uint32_t i = local[next_];
        while (seg_ + 1 < slot.segments.size() &&
               slot.segments[seg_ + 1].begin <= i) {
          ++seg_;
        }
        const std::uint64_t w = slot.segments[seg_].window;
        if (w != window_) enter(w, closed);
        WindowStats& st = open_.stats;
        const std::uint64_t index = slot.base + i;
        const PartitionRunner::Step s = part.step(slot.chunk[i]);
        ++st.packets;
        if (s.swept) {
          ++st.epoch_sweeps;
          st.expired_idle += s.expired;
        }
        st.high_water = std::max(st.high_water, s.occupancy);
        if (!slot.attribution.empty()) slot.attribution[i] = s.entry;
        if (s.entry == kUnattributedEntry) {
          if (!st.any_unattributed) {
            st.any_unattributed = true;
            st.first_unattributed = index;
          }
          ++st.unattributed;
          continue;
        }
        Batch& batch = pending_[s.entry];
        ensure_buffers(batch);
        part.fill_row(batch.slots.data() + batch.rows * stride);
        for (std::size_t mi = 0; mi < 3; ++mi) {
          batch.measured[mi][batch.rows] = s.measured[mi];
        }
        batch.indices[batch.rows] = index;
        if (++batch.rows >= kBatchRows) validate(batch);
      }
    }
    if (next_ < local.size()) return false;
    next_ = 0;
    seg_ = 0;
    if (window_ != kNoWindow && window_ < slot.end_window) close(closed);
    return true;
  }

  /// Validates every open batch into the open window.
  void flush() {
    for (Batch& b : pending_) {
      if (b.rows > 0) validate(b);
    }
  }

  /// The open window's accumulation, or null when the partition is not in
  /// `window` (call flush() first).
  const WindowAccum* open(std::uint64_t window) const {
    return window_ == window ? &open_ : nullptr;
  }

  /// State facts; they build the runner of a partition that saw no packet
  /// (the report's state facts cover every partition).
  bool tracks_state() { return runner().tracks_state(); }
  std::uint64_t occupancy() { return runner().occupancy(); }
  const obs::MonitorTelemetry& telemetry() const { return tel_; }

 private:
  /// One structure-of-arrays batch of attributed rows of one contract
  /// entry: a dense (rows x stride) PCV slot matrix plus one column per
  /// measured metric and the global packet indices.
  struct Batch {
    std::uint32_t entry = 0;
    std::size_t rows = 0;
    std::vector<std::uint64_t> slots;
    std::array<std::vector<std::uint64_t>, 3> measured;  ///< per metric_index
    std::vector<std::uint64_t> indices;
  };

  PartitionRunner& runner() {
    if (!runner_) {
      runner_.emplace(cc_, options_, factory_,
                      options_.telemetry ? &tel_ : nullptr);
    }
    return *runner_;
  }

  void enter(std::uint64_t window, std::vector<WindowAccum>& closed) {
    if (window_ != kNoWindow) close(closed);
    window_ = window;
    open_.window = window;
    open_.accums.assign(cc_.bounds.size(), ClassAccum{});
    open_.stats = WindowStats{};
  }

  void close(std::vector<WindowAccum>& closed) {
    flush();
    closed.push_back(std::move(open_));
    open_ = WindowAccum{};
    window_ = kNoWindow;
  }

  void ensure_buffers(Batch& b) {
    if (!b.slots.empty()) return;
    b.slots.resize(kBatchRows * cc_.slot_stride);
    for (auto& col : b.measured) col.resize(kBatchRows);
    b.indices.resize(kBatchRows);
  }

  /// Evaluates the batch's compiled bounds, folds the rows into the open
  /// window's ClassAccum and empties the batch. Most rows repeat the row
  /// before them (a class's packets mostly take the same path through the
  /// same state), and such runs fold as one (ClassAccum::add_rows).
  void validate(Batch& b) {
    const std::size_t rows = b.rows;
    const bool check_cycles = options_.check_cycles;
    const bool tel = options_.telemetry;
    if (tel) {
      ++tel_.batches_emitted;
      tel_.batch_rows += rows;
      tel_.batch_fill.add(rows);
    }
    for (const perf::Metric m : perf::kAllMetrics) {
      if (m == perf::Metric::kCycles && !check_cycles) continue;
      const int mi = perf::metric_index(m);
      cc_.bounds[b.entry][mi].eval_batch(b.slots.data(), cc_.slot_stride,
                                         rows, predicted_[mi].data(),
                                         scratch_);
      if (tel) ++tel_.vm_batch_evals;
    }
    if (tel) tel_.rows_validated += rows;
    open_.accums[b.entry].add_rows(
        {b.indices.data(), rows},
        {b.measured[0].data(), b.measured[1].data(), b.measured[2].data()},
        {predicted_[0].data(), predicted_[1].data(), predicted_[2].data()},
        check_cycles, options_.max_offenders);
    b.rows = 0;
  }

  const CompiledContract& cc_;
  const MonitorOptions& options_;
  const MonitorEngine::TargetFactory& factory_;
  obs::MonitorTelemetry tel_;
  std::optional<PartitionRunner> runner_;
  std::vector<Batch> pending_;  ///< one open batch per entry
  perf::BatchScratch scratch_;
  std::array<std::vector<std::int64_t>, 3> predicted_;  ///< bound columns
  std::uint64_t window_ = kNoWindow;  ///< the open window, if any
  WindowAccum open_;
  /// Where a partly stepped share of a chunk resumes: the next position in
  /// the partition's work list and the window segment it is in.
  std::size_t next_ = 0;
  std::size_t seg_ = 0;
};

ChunkDriver::ChunkDriver(const CompiledContract& compiled,
                         const MonitorOptions& options,
                         const MonitorEngine::TargetFactory& factory,
                         std::vector<char> owned, WindowFn on_window,
                         std::vector<std::uint32_t>* attribution)
    : cc_(compiled),
      options_(options),
      factory_(factory),
      owned_(std::move(owned)),
      on_window_(std::move(on_window)),
      attribution_(attribution),
      detector_(options.drift) {
  const std::size_t partitions = owned_.size();
  tasks_.resize(partitions);
  for (std::size_t p = 0; p < partitions; ++p) {
    if (!owned_[p]) continue;
    owned_list_.push_back(p);
    tasks_[p] = std::make_unique<PartitionTask>(cc_, options_, factory_);
  }
  // A fleet instance runs at most as many workers as it owns partitions.
  workers_ = std::max<std::size_t>(
      1, std::min(support::usable_threads(options_.threads),
                  owned_list_.size()));
  for (auto& slot : slots_) {
    slot = std::make_unique<Slot>();
    slot->work.resize(partitions);
    slot->closed.resize(partitions);
  }
  chunks_done_.assign(partitions, 0);
  busy_.assign(partitions, 0);
  cursor_.assign(partitions, 0);
  total_accums_.assign(cc_.bounds.size(), ClassAccum{});
  if (attribution_ != nullptr) attribution_->clear();
}

ChunkDriver::~ChunkDriver() { stop_workers(); }

void ChunkDriver::stop_workers() {
  if (!launcher_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  changed_.notify_all();
  launcher_.join();
}

ChunkDriver::Slot& ChunkDriver::bucket(
    support::Span<const net::PacketView> chunk) {
  BOLT_CHECK(chunk.size() <= std::numeric_limits<std::uint32_t>::max(),
             "monitor: a chunk holds 2^32 packets or more");
  Slot& s = *slots_[chunks_read_ % slots_.size()];
  s.chunk = chunk;
  s.base = packets_;
  packets_ += chunk.size();
  for (const std::size_t p : owned_list_) s.work[p].clear();
  s.segments.clear();
  s.ended.clear();
  if (have_open_) s.segments.push_back({0, open_window_});
  const std::uint64_t window_ns = cc_.delta_window_ns;
  const std::size_t partitions = owned_.size();
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const net::PacketView& packet = chunk[i];
    const std::uint64_t w =
        window_ns > 0 ? packet.timestamp_ns() / window_ns : 0;
    // The window clock advances on every packet of the stream, owned or
    // not, so all fleet instances close the same windows.
    if (!have_open_ || w > open_window_) {
      if (have_open_) s.ended.push_back({open_window_, open_late_});
      have_open_ = true;
      open_window_ = w;
      open_late_ = 0;
      dirty_ = false;
      s.segments.push_back({static_cast<std::uint32_t>(i), w});
    }
    const std::size_t p = partition_of(packet, partitions);
    if (!owned_[p]) continue;
    if (w < open_window_) ++open_late_;
    dirty_ = true;
    s.work[p].push_back(static_cast<std::uint32_t>(i));
  }
  s.end_window = open_window_;
  if (attribution_ != nullptr) {
    s.attribution.assign(chunk.size(), kUnattributedEntry);
  }
  return s;
}

void ChunkDriver::step_inline(Slot& slot) {
  const bool closes = !slot.ended.empty();
  for (const std::size_t p : owned_list_) {
    if (closes || !slot.work[p].empty()) tasks_[p]->run(slot, p, kWholeShare);
  }
}

void ChunkDriver::feed(support::Span<const net::PacketView> chunk) {
  BOLT_CHECK(!finished_, "monitor: feed after finish");
  if (chunk.empty()) return;
  dispatch(bucket(chunk), chunk.size() == 1);
}

void ChunkDriver::dispatch(Slot& slot, bool on_caller) {
  if (workers_ == 1 || on_caller) {
    // The caller steps the chunk itself, after whatever is in flight.
    if (chunks_consumed_ < chunks_read_) drain();
    step_inline(slot);
    {
      // Idle workers may look at the counters.
      std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
      if (launcher_.joinable()) lock.lock();
      ++chunks_read_;
      for (const std::size_t p : owned_list_) ++chunks_done_[p];
    }
    consume(slot);
    ++chunks_consumed_;
    return;
  }
  start_workers();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++chunks_read_;
    changed_.notify_all();
    // Return once only this chunk may still be stepped: the caller's next
    // read may then reuse the previous chunk's views.
    help_until(1, lock);
  }
  consume_done();
}

void ChunkDriver::drain() {
  if (chunks_consumed_ == chunks_read_) return;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    help_until(0, lock);
  }
  consume_done();
}

void ChunkDriver::start_workers() {
  if (launcher_.joinable()) return;
  // One launcher thread runs the workers' parallel_for on the process-wide
  // pool (it is a worker itself); the caller is the last worker.
  const std::size_t helpers = workers_ - 1;
  launcher_ = std::thread([this, helpers] {
    support::parallel_for(0, helpers, helpers,
                          [this](std::size_t) { work(); });
  });
}

std::uint64_t ChunkDriver::all_done() const {
  std::uint64_t done = chunks_read_;
  for (const std::size_t p : owned_list_) {
    done = std::min(done, chunks_done_[p]);
  }
  return done;
}

std::size_t ChunkDriver::pick() const {
  std::size_t best = owned_.size();
  for (const std::size_t p : owned_list_) {
    if (!busy_[p] && chunks_done_[p] < chunks_read_ &&
        (best == owned_.size() || chunks_done_[p] < chunks_done_[best])) {
      best = p;
    }
  }
  return best;
}

void ChunkDriver::step(std::size_t p, std::size_t limit,
                       std::unique_lock<std::mutex>& lock) {
  Slot& slot = *slots_[chunks_done_[p] % slots_.size()];
  busy_[p] = 1;
  lock.unlock();
  bool done = false;
  try {
    done = tasks_[p]->run(slot, p, limit);
  } catch (...) {
    lock.lock();
    busy_[p] = 0;
    throw;
  }
  lock.lock();
  busy_[p] = 0;
  if (done) ++chunks_done_[p];
  changed_.notify_all();
}

void ChunkDriver::work() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const std::size_t p = pick();
    if (p == owned_.size()) {
      changed_.wait(lock);
      continue;
    }
    try {
      step(p, kWholeShare, lock);
    } catch (...) {
      if (!error_) error_ = std::current_exception();
      stop_ = true;
      changed_.notify_all();
    }
  }
}

void ChunkDriver::help_until(std::size_t in_flight,
                             std::unique_lock<std::mutex>& lock) {
  while (chunks_read_ - all_done() > in_flight) {
    if (error_) std::rethrow_exception(error_);
    const std::size_t p = pick();
    if (p == owned_.size()) {
      changed_.wait(lock);
      continue;
    }
    // The caller steps in slices, so it is back to read the next chunk
    // soon after the one it waits for is done.
    step(p, kCallerSlice, lock);
  }
}

void ChunkDriver::consume_done() {
  std::uint64_t done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    done = all_done();
  }
  for (; chunks_consumed_ < done; ++chunks_consumed_) {
    consume(*slots_[chunks_consumed_ % slots_.size()]);
  }
}

void ChunkDriver::consume(Slot& slot) {
  // Each partition's handed-over windows are in window order, and each is
  // one of the windows that ended in this chunk.
  const std::size_t entries = cc_.bounds.size();
  std::vector<std::size_t>& cursor = cursor_;
  for (const Slot::Ended& ended : slot.ended) {
    std::vector<ClassAccum> accums(entries);
    WindowStats stats;
    for (const std::size_t p : owned_list_) {
      const std::vector<WindowAccum>& closed = slot.closed[p];
      if (cursor[p] == closed.size() ||
          closed[cursor[p]].window != ended.window) {
        continue;
      }
      const WindowAccum& part = closed[cursor[p]++];
      for (std::size_t e = 0; e < entries; ++e) {
        accums[e].merge(part.accums[e], options_.max_offenders);
      }
      stats.merge(part.stats);
    }
    stats.late_packets = ended.late;
    emit(ended.window, accums, stats, /*provisional=*/false);
  }
  for (const std::size_t p : owned_list_) {
    BOLT_CHECK(cursor[p] == slot.closed[p].size(),
               "monitor: a partition closed a window out of order");
    slot.closed[p].clear();
    cursor[p] = 0;
  }
  if (attribution_ != nullptr) {
    attribution_->insert(attribution_->end(), slot.attribution.begin(),
                         slot.attribution.end());
  }
}

void ChunkDriver::emit(std::uint64_t window,
                       const std::vector<ClassAccum>& accums,
                       const WindowStats& stats, bool provisional) {
  ClosedWindow cw;
  cw.window = window;
  cw.window_ns = cc_.delta_window_ns;
  cw.provisional = provisional;
  cw.accums = &accums;
  cw.stats = &stats;
  // Render a delta window only when there is attributed traffic — the
  // delta stream never contains a window without it.
  std::uint64_t attributed = 0;
  for (const ClassAccum& acc : accums) attributed += acc.packets;
  if (cw.window_ns > 0 && attributed > 0) {
    std::vector<DeltaEntryAccum> slices;
    slices.reserve(accums.size());
    for (const ClassAccum& acc : accums) slices.push_back(delta_slice(acc));
    if (provisional) {
      // A provisional emission must not advance the drift detector (the
      // authoritative close will); a throwaway detector with a single
      // window can never reach min_points, so alerts stay empty.
      obs::DriftDetector scratch(options_.drift);
      cw.delta = build_delta_window(window, cw.window_ns, cc_.entry_names,
                                    slices, scratch, nullptr);
    } else {
      cw.delta = build_delta_window(window, cw.window_ns, cc_.entry_names,
                                    slices, detector_, &alerts_);
    }
    cw.has_delta = true;
  }
  if (on_window_ != nullptr) on_window_(cw);
  if (provisional) return;

  if (cw.has_delta) ++windows_emitted_;
  for (std::size_t e = 0; e < total_accums_.size(); ++e) {
    total_accums_[e].merge(accums[e], options_.max_offenders);
  }
  RunTotals wt;
  wt.unattributed = stats.unattributed;
  wt.first_unattributed = stats.first_unattributed;
  wt.any_unattributed = stats.any_unattributed;
  wt.epoch_sweeps = stats.epoch_sweeps;
  wt.expired_idle = stats.expired_idle;
  wt.high_water = stats.high_water;
  totals_.merge(wt);
}

void ChunkDriver::idle_flush() {
  BOLT_CHECK(!finished_, "monitor: idle_flush after finish");
  drain();
  if (!dirty_) return;  // nothing new since the last emission
  std::vector<ClassAccum> accums(cc_.bounds.size());
  WindowStats stats;
  for (const std::size_t p : owned_list_) {
    tasks_[p]->flush();
    const WindowAccum* open = tasks_[p]->open(open_window_);
    if (open == nullptr) continue;
    for (std::size_t e = 0; e < accums.size(); ++e) {
      accums[e].merge(open->accums[e], options_.max_offenders);
    }
    stats.merge(open->stats);
  }
  stats.late_packets = open_late_;
  emit(open_window_, accums, stats, /*provisional=*/true);
  dirty_ = false;
}

obs::MonitorTelemetry ChunkDriver::telemetry() {
  drain();
  obs::MonitorTelemetry t;
  for (const std::size_t p : owned_list_) t.merge(tasks_[p]->telemetry());
  t.epoch_sweeps = totals_.epoch_sweeps;
  t.state_high_water = totals_.high_water;
  t.delta_windows = windows_emitted_;
  t.drift_alerts = alerts_.size();
  return t;
}

MonitorReport ChunkDriver::finish() {
  BOLT_CHECK(!finished_, "monitor: finish called twice");
  finished_ = true;
  // The end of the stream is one more chunk, without packets, past every
  // window: each partition validates its open batches and hands over its
  // open window, and the open window closes.
  Slot& last = *slots_[chunks_read_ % slots_.size()];
  last.chunk = {};
  last.base = packets_;
  for (const std::size_t p : owned_list_) last.work[p].clear();
  last.segments.clear();
  last.ended.clear();
  if (have_open_) last.ended.push_back({open_window_, open_late_});
  last.end_window = kNoWindow;
  last.attribution.clear();
  dispatch(last, /*on_caller=*/!launcher_.joinable());
  drain();
  stop_workers();

  // Every owned partition answers for its state, traffic or not; summed
  // across a fleet, every partition is counted exactly once.
  for (const std::size_t p : owned_list_) {
    if (!tasks_[p]->tracks_state()) continue;
    totals_.state_tracked = true;
    totals_.residents += tasks_[p]->occupancy();
  }
  if (owned_list_.empty()) {
    perf::PcvRegistry probe_reg;
    totals_.state_tracked = factory_(probe_reg).has_state_observers();
  }
  std::vector<ClassAccum> merged = std::move(total_accums_);
  total_accums_.assign(cc_.bounds.size(), ClassAccum{});
  return build_report(cc_.contract.nf_name(), packets_, owned_.size(),
                      options_.check_cycles, options_.epoch_ns,
                      cc_.entry_names, std::move(merged), totals_);
}

}  // namespace bolt::monitor
