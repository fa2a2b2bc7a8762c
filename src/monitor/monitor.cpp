#include "monitor/monitor.h"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

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

namespace {

/// Rows per validation batch: each partition buffers attributed rows per
/// contract entry and evaluates the entry's compiled bounds over this many
/// packets of one input class at once.
constexpr std::size_t kBatchRows = 64;

/// Packets per chunk when run() slices an input held in memory.
constexpr std::size_t kSlicePackets = std::size_t{1} << 16;

}  // namespace

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

/// Everything one partition accumulates, merged once at end of run.
struct MonitorEngine::PartitionResult {
  std::vector<ClassAccum> classes;
  /// Delta-report mode: window id -> per-entry accumulation; std::map so
  /// the end-of-run merge walks windows in order (node-based, so cached
  /// vector pointers stay valid).
  std::map<std::uint64_t, std::vector<DeltaEntryAccum>> delta_windows;
  RunTotals totals;
  obs::MonitorTelemetry tel;
};

/// One partition for the whole run: steps its share of each chunk through
/// its PartitionRunner (built on its first packet), appends attributed
/// rows to per-entry SoaBatch buffers, and validates each batch in place
/// when it fills (evaluating the entry's compiled bounds over the whole
/// batch). Batches stay open across chunks, so a row's batch does not
/// depend on where the chunks break. Holds the reusable buffers and
/// expression scratch, so steady-state monitoring performs no allocations.
class MonitorEngine::PartitionTask {
 public:
  PartitionTask(const MonitorEngine& e, const TargetFactory& factory,
                PartitionResult& out)
      : e_(e),
        cc_(*e.compiled_),
        factory_(factory),
        out_(out),
        tel_(e.options_.telemetry ? &out.tel : nullptr) {
    pending_.resize(cc_.bounds.size());
    for (std::size_t entry = 0; entry < pending_.size(); ++entry) {
      pending_[entry].entry = static_cast<std::uint32_t>(entry);
    }
    // Unchecked cycles keep a zero bound column (never evaluated).
    for (auto& col : predicted_) col.assign(kBatchRows, 0);
    out_.classes.assign(cc_.bounds.size(), ClassAccum{});
  }

  /// Steps the partition's packets of one chunk: `local` indexes `chunk`
  /// in order, and the chunk's first packet has global index `base`.
  /// `attribution` (optional) has one slot per packet of the chunk.
  void run(support::Span<const net::PacketView> chunk, std::uint64_t base,
           const std::vector<std::uint32_t>& local,
           std::uint32_t* attribution) {
    PartitionRunner& part = runner();
    const std::size_t stride = cc_.slot_stride;
    RunTotals& totals = out_.totals;
    for (const std::uint32_t i : local) {
      const net::PacketView& packet = chunk[i];
      const std::uint64_t index = base + i;
      const PartitionRunner::Step s = part.step(packet);
      if (s.swept) {
        ++totals.epoch_sweeps;
        totals.expired_idle += s.expired;
      }
      totals.high_water = std::max(totals.high_water, s.occupancy);
      if (attribution != nullptr) attribution[i] = s.entry;
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
        batch.windows[batch.rows] = packet.timestamp_ns() / cc_.delta_window_ns;
      }
      if (++batch.rows >= kBatchRows) validate(batch);
    }
  }

  /// Ends the run: records the state facts (building the runner if the
  /// partition saw no packet) and validates every partially filled batch.
  void finish() {
    PartitionRunner& part = runner();
    out_.totals.state_tracked = part.tracks_state();
    if (part.tracks_state()) out_.totals.residents = part.occupancy();
    for (SoaBatch& b : pending_) {
      if (b.rows > 0) validate(b);
    }
  }

 private:
  PartitionRunner& runner() {
    if (!runner_) runner_.emplace(cc_, e_.options_, factory_, tel_);
    return *runner_;
  }

  void ensure_buffers(SoaBatch& b) {
    if (!b.slots.empty()) return;
    b.slots.resize(kBatchRows * cc_.slot_stride);
    for (auto& col : b.measured) col.resize(kBatchRows);
    b.indices.resize(kBatchRows);
    b.windows.resize(kBatchRows);
  }

  /// Evaluates the batch's compiled bounds and folds every row into the
  /// partition's ClassAccum (and delta window), then empties the batch.
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
  const TargetFactory& factory_;
  PartitionResult& out_;
  obs::MonitorTelemetry* tel_;  ///< null when telemetry is off
  std::optional<PartitionRunner> runner_;
  std::vector<SoaBatch> pending_;  ///< one open batch per entry
  perf::BatchScratch scratch_;
  std::array<std::vector<std::int64_t>, 3> predicted_;  ///< bound columns
  std::vector<DeltaEntryAccum>* cached_accums_ = nullptr;
  std::uint64_t cached_window_ = 0;
};

namespace {

/// Big-endian loads (the caller has bounds-checked).
std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return __builtin_bswap64(v);
}

/// h % partitions, without the division when partitions is a power of two
/// (the default 8).
std::size_t reduce(std::uint64_t h, std::size_t partitions) {
  if ((partitions & (partitions - 1)) == 0) {
    return static_cast<std::size_t>(h & (partitions - 1));
  }
  return static_cast<std::size_t>(h % partitions);
}

}  // namespace

std::size_t partition_of(const net::PacketView& packet, std::size_t partitions) {
  if (partitions <= 1) return 0;
  // The MACs at fixed offsets, then the five-tuple when there is one.
  const std::uint8_t* b = packet.bytes().data();
  const std::size_t n = packet.size();
  constexpr std::size_t kIp = net::kEthernetHeaderSize;
  if (n < kIp) return 0;  // no Ethernet header: hash 0
  // The 48-bit MACs, each read as part of a 64-bit word inside the header.
  const std::uint64_t dst_mac = load_be64(b) >> 16;
  const std::uint64_t src_mac = load_be64(b + 4) & 0xffffffffffffULL;
  std::uint64_t h = net::mix64(src_mac * 0x9E3779B97F4A7C15ULL ^ dst_mac);
  if (const auto t = net::extract_five_tuple(packet)) {
    h = net::mix64(h ^ t->key());
  }
  return reduce(h, partitions);
}

MonitorEngine::MonitorEngine(const perf::Contract& contract,
                             const perf::PcvRegistry& reg,
                             MonitorOptions options)
    : options_(options) {
  if (options_.partitions == 0) options_.partitions = 1;
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
  std::array<std::vector<net::PacketView>, kChunksInFlight> slices;
  std::size_t next = 0;
  std::size_t calls = 0;
  return run(
      [&]() -> support::Span<const net::PacketView> {
        const std::size_t n = std::min(kSlicePackets, packets.size() - next);
        std::vector<net::PacketView>& slice = slices[calls++ % kChunksInFlight];
        slice.assign(packets.begin() + next, packets.begin() + next + n);
        next += n;
        return slice;
      },
      factory, attribution, observations);
}

MonitorReport MonitorEngine::run(support::Span<const net::PacketView> packets,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  std::size_t next = 0;
  return run(
      [&] {
        const std::size_t n = std::min(kSlicePackets, packets.size() - next);
        next += n;
        return packets.subspan(next - n, n);
      },
      factory, attribution, observations);
}

MonitorReport MonitorEngine::run(const ChunkSource& next,
                                 const TargetFactory& factory,
                                 std::vector<std::uint32_t>* attribution,
                                 obs::RunObservations* observations) const {
  // One task per partition for the whole run; results are merged exactly
  // once at the end. Threads are execution-only: every partition computes
  // the same rows wherever it runs, and all accumulation is
  // order-independent.
  const std::size_t partitions = options_.partitions;
  std::vector<PartitionResult> results(partitions);
  std::vector<std::unique_ptr<PartitionTask>> tasks;
  tasks.reserve(partitions);
  for (PartitionResult& out : results) {
    tasks.push_back(std::make_unique<PartitionTask>(*this, factory, out));
  }
  if (attribution != nullptr) attribution->clear();

  // Up to kChunksInFlight chunks are in use at once, each in its own slot:
  // a partition steps through its share of chunk k + 1 while others still
  // work on chunk k, so no thread waits at a chunk boundary unless some
  // partition falls a whole chunk behind. Reading chunk k (which ends the
  // life of chunk k - kChunksInFlight's views) waits until every partition
  // is done with that chunk. Fixed flow-affine partition: membership
  // depends only on packet contents and the partition count, never on
  // scheduling or on where the chunks break. Partitions carry chunk-local
  // indices only — packets are copied one at a time as each is processed.
  struct Slot {
    support::Span<const net::PacketView> chunk;
    std::uint64_t base = 0;  ///< global index of the chunk's first packet
    std::vector<std::vector<std::uint32_t>> work;  ///< per partition
    std::vector<std::uint32_t> attribution;  ///< per packet, when asked for
  };
  std::array<Slot, kChunksInFlight> slots;
  for (Slot& slot : slots) slot.work.resize(partitions);
  std::mutex mutex;  // guards everything below, not the slots' contents
  std::condition_variable changed;
  std::uint64_t chunks_read = 0;
  std::uint64_t chunks_attributed = 0;  ///< appended to *attribution
  std::uint64_t packets = 0;
  bool reading = false;  ///< one thread at a time reads the next chunk
  bool at_end = false;
  bool failed = false;   ///< a thread threw; the others stop
  std::vector<std::uint64_t> chunks_done(partitions, 0);
  std::vector<char> busy(partitions, 0);
  auto all_done = [&] {
    return *std::min_element(chunks_done.begin(), chunks_done.end());
  };
  // Appends the attribution of every chunk all partitions are done with.
  auto append_attribution = [&] {
    for (const std::uint64_t done = all_done(); chunks_attributed < done;
         ++chunks_attributed) {
      const Slot& slot = slots[chunks_attributed % kChunksInFlight];
      attribution->insert(attribution->end(), slot.attribution.begin(),
                          slot.attribution.end());
    }
  };
  // Reads the next chunk into `slot` and buckets it; false at the end.
  auto read_chunk = [&](Slot& slot) {
    slot.chunk = next();
    if (slot.chunk.empty()) return false;
    BOLT_CHECK(slot.chunk.size() <= std::numeric_limits<std::uint32_t>::max(),
               "monitor: a chunk holds 2^32 packets or more");
    slot.base = packets;
    packets += slot.chunk.size();
    for (std::vector<std::uint32_t>& w : slot.work) w.clear();
    for (std::size_t i = 0; i < slot.chunk.size(); ++i) {
      slot.work[partition_of(slot.chunk[i], partitions)].push_back(
          static_cast<std::uint32_t>(i));
    }
    if (attribution != nullptr) {
      slot.attribution.assign(slot.chunk.size(), kUnattributedEntry);
    }
    return true;
  };
  // Every thread runs this loop until the input is read and stepped: read
  // the next chunk when its slot is free, step the partition furthest
  // behind that has a chunk to step, or wait. With several threads the
  // read comes first, so the next chunk is ready before the current one
  // runs out; a lone thread steps first, so it holds one chunk at a time.
  const std::size_t threads =
      std::min(support::resolve_threads(options_.threads), partitions);
  auto drive = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (!failed) {
      const bool can_read = !reading && !at_end &&
                            chunks_read - all_done() < kChunksInFlight;
      std::size_t p = partitions;
      if (!can_read || threads == 1) {
        for (std::size_t q = 0; q < partitions; ++q) {
          if (!busy[q] && chunks_done[q] < chunks_read &&
              (p == partitions || chunks_done[q] < chunks_done[p])) {
            p = q;
          }
        }
      }
      if (p < partitions) {
        busy[p] = 1;
        Slot& slot = slots[chunks_done[p] % kChunksInFlight];
        lock.unlock();
        tasks[p]->run(slot.chunk, slot.base, slot.work[p],
                      attribution != nullptr ? slot.attribution.data()
                                             : nullptr);
        lock.lock();
        busy[p] = 0;
        ++chunks_done[p];
      } else if (can_read) {
        reading = true;
        if (attribution != nullptr) append_attribution();
        Slot& slot = slots[chunks_read % kChunksInFlight];
        lock.unlock();
        const bool got = read_chunk(slot);
        lock.lock();
        reading = false;
        if (got) {
          ++chunks_read;
        } else {
          at_end = true;
        }
      } else if (at_end && all_done() == chunks_read) {
        return;
      } else {
        changed.wait(lock);
        continue;
      }
      changed.notify_all();
    }
  };
  support::parallel_for(0, threads, threads, [&](std::size_t) {
    try {
      drive();
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        failed = true;
      }
      changed.notify_all();
      throw;
    }
  });
  if (attribution != nullptr) append_attribution();
  support::parallel_for(0, partitions, options_.threads,
                        [&](std::size_t p) { tasks[p]->finish(); });

  // Deterministic merge in partition order (order-independent accumulators,
  // so any thread count yields the same bytes), rendered through the shared
  // build_report path (monitor/accum.h).
  const CompiledContract& cc = *compiled_;
  std::vector<ClassAccum> merged(cc.bounds.size());
  RunTotals totals;
  for (const PartitionResult& pr : results) {
    for (std::size_t e = 0; e < merged.size(); ++e) {
      merged[e].merge(pr.classes[e], options_.max_offenders);
    }
    totals.merge(pr.totals);
  }
  MonitorReport report =
      build_report(cc.contract.nf_name(), packets, partitions,
                   options_.check_cycles, options_.epoch_ns, cc.entry_names,
                   std::move(merged), totals);

  if (observations != nullptr) {
    *observations = obs::RunObservations{};
    if (cc.delta_window_ns > 0) {
      // Merge the per-partition window maps in partition order. Window ids
      // are semantic and every accumulator is order-independent, so the
      // merged stream is byte-deterministic across the execution knobs.
      const std::size_t entries = cc.bounds.size();
      std::map<std::uint64_t, std::vector<DeltaEntryAccum>> windows;
      for (const PartitionResult& pr : results) {
        for (const auto& [w, accums] : pr.delta_windows) {
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
    // Fold the per-partition telemetry, then mirror the merge-time facts
    // the report already computed.
    obs::MonitorTelemetry& tel = observations->telemetry;
    for (const PartitionResult& pr : results) tel.merge(pr.tel);
    tel.epoch_sweeps = report.epoch_sweeps;
    tel.state_high_water = report.state_high_water;
    tel.delta_windows = observations->deltas.size();
    tel.drift_alerts = observations->alerts.size();
  }
  return report;
}

}  // namespace bolt::monitor
