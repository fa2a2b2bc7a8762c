// Order-independent accumulators shared by the batch monitor engine, the
// streaming (follow-mode) monitor and the fleet merger.
//
// Every accumulator here merges order-independently: counters are sums,
// worsts are maxima under a *total* order (utilization, ties by packet
// index), the bounded offender list is a top-k under the same total order,
// and the sketches are merge-order independent by property test. That is
// what lets statistics accumulate per partition, per delta window, or per
// fleet instance — whose composition depends on deployment shape — and
// still merge to byte-identical reports.
//
// build_report / build_delta_window are the single rendering paths: the
// batch engine's end-of-run merge, the streaming monitor's finish(), and
// `bolt_cli merge`'s fleet fold all call the same two functions, so
// "byte-identical to the single-instance batch run" is correct by
// construction rather than by parallel maintenance of three copies.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "monitor/report.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "perf/metric.h"
#include "perf/quantile_sketch.h"
#include "support/span.h"

namespace bolt::monitor {

/// Per-mille utilization recorded for a degenerate bound (predicted <= 0
/// with measured work): effectively infinite, clamped so the sketch stays
/// in integer range.
inline constexpr std::uint64_t kDegenerateUtilPm = 1'000'000'000ull;

/// Exact utilization comparison between two (measured, predicted) pairs
/// without floating point: u(m, p) = m/p for p > 0; 0 when m == 0; and
/// +inf when p <= 0 but work was measured (a degenerate bound is an
/// automatic violation). Returns <0, 0, >0 like strcmp.
int util_cmp(std::uint64_t ma, std::int64_t pa, std::uint64_t mb,
             std::int64_t pb);

/// Decile bucket for a compliant packet, kViolationBucket for a violation.
std::size_t util_bucket(std::uint64_t measured, std::int64_t predicted);

/// Utilization in per-mille of the bound (the sketch's unit).
std::uint64_t util_pm(std::uint64_t measured, std::int64_t predicted);

/// Strictly-higher-utilization-first ordering (ties: lower packet index).
bool offender_before(const Offender& a, const Offender& b);

struct MetricAccum {
  std::uint64_t violations = 0;
  bool has_worst = false;
  std::uint64_t worst_packet = 0;
  std::int64_t worst_predicted = 0;
  std::uint64_t worst_measured = 0;
  std::array<std::uint64_t, kUtilizationBuckets> histogram{};
  perf::QuantileSketch headroom_pm;

  /// Folds one packet's measured value against its bound.
  void record(std::uint64_t packet, std::uint64_t measured,
              std::int64_t predicted) {
    record_run(packet, 1, measured, predicted);
  }
  /// Folds `count` packets that all measured `measured` against
  /// `predicted`, the lowest-indexed of which is `first_packet`: the state
  /// `count` record() calls reach. Equal utilizations tie on the packet
  /// index, so only the first can become the worst. Returns the run's
  /// util_pm.
  std::uint64_t record_run(std::uint64_t first_packet, std::uint64_t count,
                           std::uint64_t measured, std::int64_t predicted);
  void merge(const MetricAccum& other);
};

struct ClassAccum {
  std::uint64_t packets = 0;
  std::array<MetricAccum, 3> metrics;
  perf::QuantileSketch violation_margin_pm;
  std::vector<Offender> offenders;  ///< sorted by offender_before, bounded

  /// Folds a run of validated packets that all measured `measured` against
  /// `predicted` (arrays indexed by perf::metric_index); `packets` holds
  /// their stream indices in ascending order. Per packet, that is: record
  /// every checked metric (cycles only when `check_cycles`) against its
  /// bound, add the violation margin of each exceeded bound, and offer the
  /// packet's worst metric as an offender. A run costs one such step: its
  /// packets tie on utilization, so they are offered as offenders in index
  /// order only until the first is turned away.
  void add_run(support::Span<const std::uint64_t> packets,
               const std::array<std::uint64_t, 3>& measured,
               const std::array<std::int64_t, 3>& predicted,
               bool check_cycles, std::size_t cap);
  /// Folds `packets.size()` validated rows given as columns (measured[mi]
  /// and predicted[mi] per perf::metric_index, `packets` ascending): each
  /// run of consecutive rows that repeat every checked (measured,
  /// predicted) pair goes to add_run as one.
  void add_rows(support::Span<const std::uint64_t> packets,
                const std::array<const std::uint64_t*, 3>& measured,
                const std::array<const std::int64_t*, 3>& predicted,
                bool check_cycles, std::size_t cap);
  /// Offers one offender to the list (kept to `cap`); false when it is
  /// turned away, which every offender after it in offender_before order
  /// would be too.
  bool add_offender(const Offender& o, std::size_t cap);
  void merge(const ClassAccum& other, std::size_t cap);
};

/// One (window, contract entry) of the delta stream: the packet count,
/// violation counts and headroom sketches of that window's ClassAccum.
/// The monitor folds nothing into it: delta_slice projects it from a
/// window's ClassAccum, and build_delta_window renders it.
struct DeltaEntryAccum {
  std::uint64_t packets = 0;
  std::array<std::uint64_t, 3> violations{};
  std::array<perf::QuantileSketch, 3> headroom_pm;
};

/// The delta-window view of a full per-class accumulation: the chunk
/// driver and the fleet merger keep one ClassAccum per window and project
/// it down when rendering the delta stream.
DeltaEntryAccum delta_slice(const ClassAccum& acc);

/// Everything a run accumulates outside the per-class statistics. Sums,
/// minima (first unattributed packet) and maxima (state high water) — all
/// order-independent, so partition results, closed windows and fleet partials
/// fold through the same type.
struct RunTotals {
  std::uint64_t unattributed = 0;
  std::uint64_t first_unattributed = 0;
  bool any_unattributed = false;
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t expired_idle = 0;
  std::uint64_t high_water = 0;
  std::uint64_t residents = 0;
  bool state_tracked = false;

  void merge(const RunTotals& other);
};

/// Renders the final MonitorReport from fully merged per-entry accumulators
/// (parallel to `entry_names`, the contract entry order) and run totals.
/// `epoch_ns_option` is MonitorOptions::epoch_ns — the report carries the
/// *effective* value (0 when the target tracks no state). Consumes the
/// accumulators (offender vectors are moved into the report).
MonitorReport build_report(const std::string& nf, std::uint64_t packets,
                           std::size_t partitions, bool cycles_checked,
                           std::uint64_t epoch_ns_option,
                           const std::vector<std::string>& entry_names,
                           std::vector<ClassAccum>&& merged,
                           const RunTotals& totals);

/// Renders one delta window from per-entry accumulations (parallel to
/// `entry_names`) and feeds the drift detector exactly the stream the
/// operator sees: one p99 point per (class, metric) per window, classes in
/// sorted order. Raised alerts land in the returned window *and* in
/// `alerts_out` (when non-null). Call in ascending window order — the
/// detector is stateful.
obs::DeltaWindow build_delta_window(std::uint64_t window,
                                    std::uint64_t window_ns,
                                    const std::vector<std::string>& entry_names,
                                    const std::vector<DeltaEntryAccum>& accums,
                                    obs::DriftDetector& detector,
                                    std::vector<obs::DriftAlert>* alerts_out);

}  // namespace bolt::monitor
