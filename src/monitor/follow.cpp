#include "monitor/follow.h"

#include <algorithm>
#include <utility>

#include "monitor/partition.h"
#include "obs/delta.h"
#include "support/assert.h"

namespace bolt::monitor {

struct StreamMonitor::WindowData {
  std::vector<ClassAccum> accums;  ///< per contract entry
  WindowStats stats;
};

StreamMonitor::StreamMonitor(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             const MonitorEngine::TargetFactory& factory,
                             MonitorOptions options, FleetOptions fleet,
                             WindowFn on_window)
    : factory_(factory),
      options_(options),
      fleet_(std::move(fleet)),
      on_window_(std::move(on_window)),
      compiled_(contract, reg, options),
      detector_(options.drift) {
  if (options_.partitions == 0) options_.partitions = 1;
  if (fleet_.instances == 0) fleet_.instances = 1;
  BOLT_CHECK(fleet_.instance < fleet_.instances,
             "stream monitor: instance id out of range");
  BOLT_CHECK(fleet_.owners.empty() || fleet_.owners.size() == options_.partitions,
             "stream monitor: owners map must cover every partition");
  for (const std::uint32_t owner : fleet_.owners) {
    BOLT_CHECK(owner < fleet_.instances,
               "stream monitor: partition owner out of range");
  }
  partitions_.resize(options_.partitions);
  total_accums_.assign(compiled_.bounds.size(), ClassAccum{});
  row_buf_.assign(compiled_.slot_stride, 0);
  // Probe the factory once for the state-observer flag: the batch engine
  // reports state_tracked for every run regardless of traffic, and so
  // must an instance that happened to own only quiet partitions.
  {
    perf::PcvRegistry probe_reg;
    track_state_ = factory_(probe_reg).has_state_observers();
  }
  totals_.state_tracked = track_state_;
}

StreamMonitor::~StreamMonitor() = default;

bool StreamMonitor::owned(std::size_t partition) const {
  const std::uint32_t owner =
      fleet_.owners.empty()
          ? static_cast<std::uint32_t>(partition % fleet_.instances)
          : fleet_.owners[partition];
  return owner == fleet_.instance;
}

void StreamMonitor::feed(const net::PacketView& packet) {
  BOLT_CHECK(!finished_, "stream monitor: feed after finish");
  const std::uint64_t index = next_index_++;
  const std::uint64_t window_ns = compiled_.delta_window_ns;
  const std::uint64_t w =
      window_ns > 0 ? packet.timestamp_ns() / window_ns : 0;

  // The window clock advances on *every* packet of the global stream
  // (owned or not), so all fleet instances close the same windows at the
  // same stream positions.
  const std::size_t entries = compiled_.bounds.size();
  if (!have_open_) {
    open_ = std::make_unique<WindowData>();
    open_->accums.assign(entries, ClassAccum{});
    have_open_ = true;
    open_window_ = w;
  } else if (w > open_window_) {
    close_open(/*provisional=*/false);
    open_->accums.assign(entries, ClassAccum{});
    open_->stats = WindowStats{};
    open_window_ = w;
  }

  const std::size_t p = partition_of(packet, options_.partitions);
  if (!owned(p)) return;
  WindowStats& st = open_->stats;
  if (w < open_window_) ++st.late_packets;
  ++st.packets;
  open_dirty_ = true;

  PartitionRunner& part = partition(p);
  const PartitionRunner::Step s = part.step(packet);
  if (s.swept) {
    ++st.epoch_sweeps;
    st.expired_idle += s.expired;
  }
  st.high_water = std::max(st.high_water, s.occupancy);
  if (s.entry == kUnattributedEntry) {
    if (!st.any_unattributed || index < st.first_unattributed) {
      st.any_unattributed = true;
      st.first_unattributed = index;
    }
    ++st.unattributed;
    return;
  }

  // Validate the row on its own: the stream has no batch to amortise over.
  part.fill_row(row_buf_.data());
  std::array<std::int64_t, 3> predicted{};
  for (const perf::Metric m : perf::kAllMetrics) {
    if (m == perf::Metric::kCycles && !options_.check_cycles) continue;
    const int mi = perf::metric_index(m);
    compiled_.bounds[s.entry][mi].eval_batch(
        row_buf_.data(), compiled_.slot_stride, 1, &predicted[mi], scratch_);
    if (options_.telemetry) ++tel_.vm_batch_evals;
  }
  open_->accums[s.entry].add_row(index, s.measured, predicted,
                                 options_.check_cycles,
                                 options_.max_offenders);
  if (options_.telemetry) ++tel_.rows_validated;
}

PartitionRunner& StreamMonitor::partition(std::size_t p) {
  if (partitions_[p] == nullptr) {
    partitions_[p] = std::make_unique<PartitionRunner>(
        compiled_, options_, factory_,
        options_.telemetry ? &tel_ : nullptr);
  }
  return *partitions_[p];
}

void StreamMonitor::close_open(bool provisional) {
  if (!have_open_) return;
  if (provisional && !open_dirty_) return;  // nothing new since last flush

  ClosedWindow cw;
  cw.window = open_window_;
  cw.window_ns = compiled_.delta_window_ns;
  cw.provisional = provisional;
  cw.accums = &open_->accums;
  cw.stats = &open_->stats;

  // Render a delta window only when there is attributed traffic — the
  // batch stream never contains a window without it.
  std::uint64_t attributed = 0;
  for (const ClassAccum& acc : open_->accums) attributed += acc.packets;
  if (cw.window_ns > 0 && attributed > 0) {
    std::vector<DeltaEntryAccum> slices;
    slices.reserve(open_->accums.size());
    for (const ClassAccum& acc : open_->accums) {
      slices.push_back(delta_slice(acc));
    }
    if (provisional) {
      // A provisional emission must not advance the drift detector (the
      // authoritative close will); a throwaway detector with a single
      // window can never reach min_points, so alerts stay empty.
      obs::DriftDetector scratch(options_.drift);
      cw.delta = build_delta_window(open_window_, cw.window_ns,
                                    entry_names(), slices, scratch, nullptr);
    } else {
      cw.delta = build_delta_window(open_window_, cw.window_ns,
                                    entry_names(), slices, detector_, &alerts_);
    }
    cw.has_delta = true;
  }

  if (on_window_ != nullptr) on_window_(cw);
  open_dirty_ = false;
  if (provisional) return;  // keep accumulating into the same window

  if (cw.has_delta) ++windows_emitted_;
  for (std::size_t e = 0; e < total_accums_.size(); ++e) {
    total_accums_[e].merge(open_->accums[e], options_.max_offenders);
  }
  RunTotals wt;
  wt.unattributed = open_->stats.unattributed;
  wt.first_unattributed = open_->stats.first_unattributed;
  wt.any_unattributed = open_->stats.any_unattributed;
  wt.epoch_sweeps = open_->stats.epoch_sweeps;
  wt.expired_idle = open_->stats.expired_idle;
  wt.high_water = open_->stats.high_water;
  totals_.merge(wt);
}

obs::MonitorTelemetry StreamMonitor::telemetry_snapshot() const {
  obs::MonitorTelemetry t = tel_;
  t.epoch_sweeps = totals_.epoch_sweeps;
  t.state_high_water = totals_.high_water;
  t.delta_windows = windows_emitted_;
  t.drift_alerts = alerts_.size();
  return t;
}

void StreamMonitor::idle_flush() {
  BOLT_CHECK(!finished_, "stream monitor: idle_flush after finish");
  close_open(/*provisional=*/true);
}

StreamResult StreamMonitor::finish() {
  BOLT_CHECK(!finished_, "stream monitor: finish called twice");
  finished_ = true;
  close_open(/*provisional=*/false);
  have_open_ = false;
  open_.reset();

  // Residents match the batch engine, which instantiates every partition
  // (even traffic-free ones) and sums end-of-run occupancy. An instance
  // only answers for partitions it owns — summed across a fleet, every
  // partition is counted exactly once, same as a single monitor.
  if (track_state_) {
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      if (owned(p)) totals_.residents += partition(p).occupancy();
    }
  }

  StreamResult out;
  std::vector<ClassAccum> merged = std::move(total_accums_);
  total_accums_.assign(compiled_.bounds.size(), ClassAccum{});
  out.report = build_report(compiled_.contract.nf_name(), next_index_,
                            options_.partitions, options_.check_cycles,
                            options_.epoch_ns, entry_names(),
                            std::move(merged), totals_);
  out.observations.alerts = alerts_;
  // Merge-time facts are mirrored whether or not counter collection was on
  // — same as the batch engine (counters stay zero when telemetry is off).
  tel_.epoch_sweeps = out.report.epoch_sweeps;
  tel_.state_high_water = out.report.state_high_water;
  tel_.delta_windows = windows_emitted_;
  tel_.drift_alerts = alerts_.size();
  out.observations.telemetry = tel_;
  return out;
}

}  // namespace bolt::monitor
