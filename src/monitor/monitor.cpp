#include "monitor/monitor.h"

#include <algorithm>
#include <map>

#include "monitor/accum.h"
#include "monitor/partition.h"
#include "net/flow.h"
#include "net/headers.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "perf/expr_vm.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace bolt::monitor {

// The accumulators (MetricAccum/ClassAccum/DeltaEntryAccum), the exact
// utilization arithmetic, and the report/delta-window rendering all live
// in monitor/accum.h — shared with the streaming monitor (follow.cpp) and
// the fleet merger (obs/fleet.cpp), which must produce byte-identical
// output to this engine.

/// One batch of attributed packets for one contract entry, laid out
/// structure-of-arrays: a dense (rows x stride) PCV slot matrix plus one
/// column per measured metric and the global packet indices — the unit
/// bound evaluation is amortised over.
struct MonitorEngine::SoaBatch {
  std::uint32_t entry = 0;  ///< contract entry all rows belong to
  std::size_t rows = 0;
  std::vector<std::uint64_t> slots;  ///< rows x slot_stride PCV values
  std::array<std::vector<std::uint64_t>, 3> measured;  ///< per metric_index
  std::vector<std::uint64_t> indices;  ///< global packet indices
  std::vector<std::uint64_t> windows;  ///< delta window ids (delta mode only)
};

/// Everything one work queue accumulates, merged once at end of run.
struct MonitorEngine::QueueResult {
  std::vector<ClassAccum> classes;
  /// Delta-report mode: window id -> per-entry accumulation; std::map so
  /// the end-of-run merge walks windows in order (node-based, so cached
  /// vector pointers stay valid).
  std::map<std::uint64_t, std::vector<DeltaEntryAccum>> delta_windows;
  RunTotals totals;
  obs::MonitorTelemetry tel;
};

/// Runs one work queue to completion on the calling thread: steps each
/// partition's packets through a fresh PartitionRunner, appends attributed
/// rows to per-entry SoaBatch buffers, and validates each batch in place
/// when it fills (evaluating the entry's compiled bounds over the whole
/// batch) and at the end. Holds the reusable buffers and expression
/// scratch, so steady-state monitoring performs no allocations.
class MonitorEngine::QueueTask {
 public:
  QueueTask(const MonitorEngine& e, const std::vector<net::Packet>& packets,
            const TargetFactory& factory,
            std::vector<std::uint32_t>* attribution, QueueResult& out)
      : e_(e),
        cc_(*e.compiled_),
        packets_(packets),
        factory_(factory),
        attribution_(attribution),
        out_(out),
        tel_(e.options_.telemetry ? &out.tel : nullptr),
        capacity_(e.options_.batch) {
    pending_.resize(cc_.bounds.size());
    for (std::size_t entry = 0; entry < pending_.size(); ++entry) {
      pending_[entry].entry = static_cast<std::uint32_t>(entry);
    }
    // Unchecked cycles keep a zero bound column (never evaluated).
    for (auto& col : predicted_) col.assign(capacity_, 0);
    out_.classes.assign(cc_.bounds.size(), ClassAccum{});
  }

  void run_partition(const std::vector<std::uint64_t>& indices) {
    PartitionRunner part(cc_, e_.options_, factory_, tel_);
    const std::size_t stride = cc_.slot_stride;
    RunTotals& totals = out_.totals;
    for (const std::uint64_t index : indices) {
      const PartitionRunner::Step s = part.step(packets_[index]);
      if (s.swept) {
        ++totals.epoch_sweeps;
        totals.expired_idle += s.expired;
      }
      totals.high_water = std::max(totals.high_water, s.occupancy);
      if (attribution_ != nullptr) (*attribution_)[index] = s.entry;
      if (s.entry == kUnattributedEntry) {
        if (!totals.any_unattributed || index < totals.first_unattributed) {
          totals.any_unattributed = true;
          totals.first_unattributed = index;
        }
        ++totals.unattributed;
        continue;
      }
      SoaBatch& batch = pending_[s.entry];
      ensure_buffers(batch);
      part.fill_row(batch.slots.data() + batch.rows * stride);
      for (std::size_t mi = 0; mi < 3; ++mi) {
        batch.measured[mi][batch.rows] = s.measured[mi];
      }
      batch.indices[batch.rows] = index;
      if (cc_.delta_window_ns > 0) {
        // Semantic window id — a pure function of the packet timestamp, so
        // the delta stream inherits the report's determinism.
        batch.windows[batch.rows] =
            packets_[index].timestamp_ns() / cc_.delta_window_ns;
      }
      if (++batch.rows >= capacity_) validate(batch);
    }
    totals.state_tracked = totals.state_tracked || part.tracks_state();
    if (part.tracks_state()) totals.residents += part.occupancy();
  }

  /// Validates every partially filled batch — rows never cross a queue.
  void flush() {
    for (SoaBatch& b : pending_) {
      if (b.rows > 0) validate(b);
    }
  }

 private:
  void ensure_buffers(SoaBatch& b) {
    if (!b.slots.empty()) return;
    b.slots.resize(capacity_ * cc_.slot_stride);
    for (auto& col : b.measured) col.resize(capacity_);
    b.indices.resize(capacity_);
    b.windows.resize(capacity_);
  }

  /// Evaluates the batch's compiled bounds and folds every row into the
  /// queue's ClassAccum (and delta window), then empties the batch.
  void validate(SoaBatch& b) {
    const std::size_t rows = b.rows;
    const bool check_cycles = e_.options_.check_cycles;
    if (tel_ != nullptr) {
      ++tel_->batches_emitted;
      tel_->batch_rows += rows;
      tel_->batch_fill.add(rows);
    }
    for (const perf::Metric m : perf::kAllMetrics) {
      if (m == perf::Metric::kCycles && !check_cycles) continue;
      const int mi = perf::metric_index(m);
      cc_.bounds[b.entry][mi].eval_batch(b.slots.data(), cc_.slot_stride,
                                         rows, predicted_[mi].data(),
                                         scratch_);
      if (tel_ != nullptr) ++tel_->vm_batch_evals;
    }
    if (tel_ != nullptr) tel_->rows_validated += rows;
    ClassAccum& acc = out_.classes[b.entry];
    std::array<std::uint64_t, 3> measured{};
    std::array<std::int64_t, 3> predicted{};
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t mi = 0; mi < 3; ++mi) {
        measured[mi] = b.measured[mi][r];
        predicted[mi] = predicted_[mi][r];
      }
      acc.add_row(b.indices[r], measured, predicted, check_cycles,
                  e_.options_.max_offenders);
      if (cc_.delta_window_ns > 0) {
        delta_for(b.windows[r], b.entry)
            .add_row(measured, predicted, check_cycles);
      }
    }
    b.rows = 0;
  }

  /// The window -> per-entry delta accumulators lookup, memoised:
  /// consecutive rows overwhelmingly land in the same window, so the
  /// common case is one compare. Map nodes are stable, so the cached
  /// pointer survives later insertions.
  DeltaEntryAccum& delta_for(std::uint64_t window, std::uint32_t entry) {
    if (cached_accums_ == nullptr || window != cached_window_) {
      auto [it, inserted] = out_.delta_windows.try_emplace(window);
      if (inserted) it->second.resize(cc_.bounds.size());
      cached_accums_ = &it->second;
      cached_window_ = window;
    }
    return (*cached_accums_)[entry];
  }

  const MonitorEngine& e_;
  const CompiledContract& cc_;
  const std::vector<net::Packet>& packets_;
  const TargetFactory& factory_;
  std::vector<std::uint32_t>* attribution_;
  QueueResult& out_;
  obs::MonitorTelemetry* tel_;  ///< null when telemetry is off
  const std::size_t capacity_;  ///< rows per batch
  std::vector<SoaBatch> pending_;  ///< one open batch per entry
  perf::BatchScratch scratch_;
  std::array<std::vector<std::int64_t>, 3> predicted_;  ///< bound columns
  std::vector<DeltaEntryAccum>* cached_accums_ = nullptr;
  std::uint64_t cached_window_ = 0;
};

std::size_t partition_of(const net::Packet& packet, std::size_t partitions) {
  if (partitions <= 1) return 0;
  std::uint64_t h = 0;
  if (const auto eth = net::parse_ethernet(packet.bytes())) {
    h = net::mix64(eth->src.to_u64() * 0x9E3779B97F4A7C15ULL ^
                   eth->dst.to_u64());
  }
  if (const auto tuple = net::extract_five_tuple(packet)) {
    h = net::mix64(h ^ tuple->key());
  }
  return static_cast<std::size_t>(h % partitions);
}

MonitorEngine::MonitorEngine(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             MonitorOptions options)
    : options_(options) {
  if (options_.partitions == 0) options_.partitions = 1;
  if (options_.batch == 0) options_.batch = 1;
  compiled_ = std::make_unique<const CompiledContract>(contract, reg, options_);
}

MonitorEngine::~MonitorEngine() = default;

MonitorEngine::TargetFactory MonitorEngine::named_factory(std::string name) {
  return [name = std::move(name)](perf::PcvRegistry& reg) {
    core::NfTarget target;
    BOLT_CHECK(core::make_named_target(name, reg, target),
               "monitor: unknown target '" + name + "'");
    return target;
  };
}

MonitorReport MonitorEngine::run(const std::vector<net::Packet>& packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  // Fixed flow-affine partition: membership depends only on packet
  // contents and the partition count, never on scheduling. Partitions
  // carry indices only — packets are copied one at a time as each is
  // processed, so monitoring never duplicates the whole trace.
  const std::size_t partitions = options_.partitions;
  std::vector<std::vector<std::uint64_t>> work(partitions);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    work[partition_of(packets[i], partitions)].push_back(i);
  }
  if (attribution != nullptr) {
    attribution->assign(packets.size(), kUnattributedEntry);
  }

  // Execution: partitions are grouped into `shards` work queues by the
  // configured policy and queues run concurrently. None of these knobs
  // can change report bytes — every partition computes the same rows
  // regardless of which queue or thread ran it, and all accumulation is
  // order-independent.
  const std::size_t shards =
      options_.shards == 0 ? partitions
                           : std::min(options_.shards, partitions);
  std::vector<std::vector<std::size_t>> queue(shards);
  if (options_.grouping == ShardGrouping::kLongestQueueFirst) {
    // LPT: heaviest partitions placed first, each on the lightest queue.
    std::vector<std::size_t> order(partitions);
    for (std::size_t p = 0; p < partitions; ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return work[a].size() > work[b].size();
                     });
    std::vector<std::size_t> load(shards, 0);
    for (const std::size_t p : order) {
      std::size_t lightest = 0;
      for (std::size_t s = 1; s < shards; ++s) {
        if (load[s] < load[lightest]) lightest = s;
      }
      queue[lightest].push_back(p);
      load[lightest] += work[p].size();
    }
  } else {
    for (std::size_t p = 0; p < partitions; ++p) {
      queue[p % shards].push_back(p);
    }
  }

  // Each queue runs to completion on one pool thread; results are merged
  // exactly once at end of run.
  std::vector<QueueResult> queue_results(shards);
  support::ThreadPool pool(
      std::min(support::resolve_threads(options_.threads), shards));
  pool.parallel_for(0, shards, [&](std::size_t s) {
    QueueTask task(*this, packets, factory, attribution, queue_results[s]);
    for (const std::size_t p : queue[s]) task.run_partition(work[p]);
    task.flush();
  });

  // Deterministic merge in queue order (order-independent accumulators, so
  // any queue composition yields the same bytes), rendered through the
  // shared build_report path (monitor/accum.h).
  const CompiledContract& cc = *compiled_;
  std::vector<ClassAccum> merged(cc.bounds.size());
  RunTotals totals;
  for (const QueueResult& qr : queue_results) {
    for (std::size_t e = 0; e < merged.size(); ++e) {
      merged[e].merge(qr.classes[e], options_.max_offenders);
    }
    totals.merge(qr.totals);
  }
  MonitorReport report =
      build_report(cc.contract.nf_name(), packets.size(), partitions,
                   options_.check_cycles, options_.epoch_ns, cc.entry_names,
                   std::move(merged), totals);

  if (observations != nullptr) {
    *observations = obs::RunObservations{};
    if (cc.delta_window_ns > 0) {
      // Merge the per-queue window maps in queue order. Window ids are
      // semantic and every accumulator is order-independent, so the merged
      // stream is byte-deterministic across the execution knobs.
      const std::size_t entries = cc.bounds.size();
      std::map<std::uint64_t, std::vector<DeltaEntryAccum>> windows;
      for (const QueueResult& qr : queue_results) {
        for (const auto& [w, accums] : qr.delta_windows) {
          auto [it, inserted] = windows.try_emplace(w);
          if (inserted) it->second.resize(entries);
          for (std::size_t e = 0; e < entries; ++e) {
            it->second[e].merge(accums[e]);
          }
        }
      }
      obs::DriftDetector detector(options_.drift);
      observations->deltas.reserve(windows.size());
      for (const auto& [w, accums] : windows) {
        observations->deltas.push_back(
            build_delta_window(w, cc.delta_window_ns, cc.entry_names, accums,
                               detector, &observations->alerts));
      }
    }
    // Fold the per-queue telemetry, then mirror the merge-time facts the
    // report already computed.
    obs::MonitorTelemetry& tel = observations->telemetry;
    for (const QueueResult& qr : queue_results) tel.merge(qr.tel);
    tel.epoch_sweeps = report.epoch_sweeps;
    tel.state_high_water = report.state_high_water;
    tel.delta_windows = observations->deltas.size();
    tel.drift_alerts = observations->alerts.size();
  }
  return report;
}

}  // namespace bolt::monitor
