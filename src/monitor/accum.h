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

  void record(std::uint64_t packet, std::uint64_t measured,
              std::int64_t predicted);
  void merge(const MetricAccum& other);
};

struct ClassAccum {
  std::uint64_t packets = 0;
  std::array<MetricAccum, 3> metrics;
  perf::QuantileSketch violation_margin_pm;
  std::vector<Offender> offenders;  ///< sorted by offender_before, bounded

  /// Folds one validated packet: records every checked metric (cycles only
  /// when `check_cycles`) against its bound, adds the violation margin of
  /// each exceeded bound, and offers the packet's worst metric as an
  /// offender. Arrays are indexed by perf::metric_index.
  void add_row(std::uint64_t packet,
               const std::array<std::uint64_t, 3>& measured,
               const std::array<std::int64_t, 3>& predicted,
               bool check_cycles, std::size_t cap);
  void add_offender(const Offender& o, std::size_t cap);
  void merge(const ClassAccum& other, std::size_t cap);
};

/// Per-(window, contract entry) accumulation for delta-report mode: the
/// same headroom values the main report's sketches see, bucketed by the
/// semantic window id. Merging every window's sketches reproduces the
/// end-of-run sketch state (tests/test_obs.cpp locks that down).
struct DeltaEntryAccum {
  std::uint64_t packets = 0;
  std::array<std::uint64_t, 3> violations{};
  std::array<perf::QuantileSketch, 3> headroom_pm;

  /// The delta-window share of ClassAccum::add_row.
  void add_row(const std::array<std::uint64_t, 3>& measured,
               const std::array<std::int64_t, 3>& predicted,
               bool check_cycles);
  void merge(const DeltaEntryAccum& other);
};

/// The delta-window view of a full per-class accumulation: a window-level
/// ClassAccum carries strictly more than a DeltaEntryAccum, so the
/// streaming monitor and the fleet merger keep only ClassAccums per window
/// and project them down when rendering the delta stream.
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
