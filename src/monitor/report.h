// Monitor reports — what streaming contract validation produces.
//
// Per input class, the monitor aggregates packet counts, per-metric
// violation counts, headroom (utilization = measured / predicted bound)
// histograms, online headroom *distribution* sketches (p50/p90/p99/p999 in
// per-mille of the bound), violation-margin quantiles, and the worst
// offenders with their global packet indices so a violation can be
// replayed from the original trace ("packet 17342 of this pcap broke the
// NAT's internal_new bound").
//
// Long-running-operation fields (epoch sweeps, flow-state high-water mark,
// resident entries) make a week-long monitoring run auditable: an operator
// reads off that state stayed bounded and how much of it idle-epoch expiry
// reclaimed.
//
// Reports are deterministic by construction: every field is derived from
// integer aggregation over fixed flow-affine state partitions, merged in
// partition order — so a report for a given (contract, traffic, partition
// count) is byte-identical no matter how many threads computed it. That
// property is enforced by tests/test_monitor.cpp and
// tests/test_monitor_longrun.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/metric.h"
#include "perf/quantile_sketch.h"

namespace bolt::monitor {

/// Monitor report JSON schema version (bumped to 2 by the operator-mode
/// work: the partition count, state/epoch fields, quantile summaries). Keep in lockstep with README "Monitor report schema".
inline constexpr std::int64_t kReportSchemaVersion = 2;

/// Utilization histogram shape: deciles [0,10%) .. [90,100%] of the bound,
/// plus one overflow bucket for violations (measured > predicted).
inline constexpr std::size_t kUtilizationBuckets = 11;
inline constexpr std::size_t kViolationBucket = kUtilizationBuckets - 1;

/// One packet that came closest to (or broke) its class's bound.
struct Offender {
  std::uint64_t packet_index = 0;  ///< index into the monitored stream
  perf::Metric metric = perf::Metric::kInstructions;  ///< worst metric
  std::int64_t predicted = 0;
  std::uint64_t measured = 0;
};

/// Selected quantiles of a per-mille distribution (utilization or
/// violation margin), extracted from the merged QuantileSketch. Integer
/// fields, so the rendering is byte-deterministic. The type lives in
/// perf/quantile_sketch.h so the telemetry layer's delta stream shares
/// the exact extraction and JSON shape.
using QuantileSummary = perf::QuantileSummary;

/// Per-class, per-metric aggregation.
struct MetricReport {
  std::uint64_t violations = 0;
  /// The packet with the highest measured/predicted ratio for this metric.
  std::uint64_t worst_packet = 0;
  std::int64_t worst_predicted = 0;
  std::uint64_t worst_measured = 0;
  std::array<std::uint64_t, kUtilizationBuckets> histogram{};
  /// Distribution of measured/predicted in per-mille of the bound.
  QuantileSummary headroom_pm;

  /// measured/predicted at the worst packet (0 when the class is empty).
  double max_utilization() const;
};

struct ClassReport {
  std::string input_class;
  std::uint64_t packets = 0;
  std::array<MetricReport, 3> metrics;  ///< indexed by perf::metric_index
  /// Distribution of (measured - predicted) in per-mille of the bound,
  /// across all metrics, violations only (empty on a compliant run).
  QuantileSummary violation_margin_pm;
  /// Worst offenders across metrics, highest utilization first (ties:
  /// lower packet index). Bounded by MonitorOptions::max_offenders.
  std::vector<Offender> offenders;
};

struct MonitorReport {
  std::string nf;
  std::uint64_t packets = 0;
  std::uint64_t attributed = 0;
  /// Packets whose observed class key has no contract entry (a generation
  /// gap or a state divergence — always worth investigating).
  std::uint64_t unattributed = 0;
  std::uint64_t first_unattributed_packet = 0;  ///< valid when > 0 above
  std::uint64_t violations = 0;  ///< total across classes and metrics
  /// Flow-affine state partitions (semantic; part of the report).
  std::size_t partitions = 0;
  bool cycles_checked = false;

  // --- long-running operation (deterministic epoch clock) ---
  /// False for targets with no observable flow/NF state (stateless chains,
  /// static routers): the state/epoch fields below are then vacuous zeros,
  /// not "maintenance ran and found nothing".
  bool state_tracked = false;
  std::uint64_t epoch_ns = 0;       ///< 0 = epoch maintenance disabled
  std::uint64_t epoch_sweeps = 0;   ///< idle-expiry sweeps run (all partitions)
  std::uint64_t state_expired_idle = 0;  ///< entries reclaimed by those sweeps
  std::uint64_t state_high_water = 0;    ///< max per-partition occupancy seen
  std::uint64_t state_residents = 0;     ///< live entries at end of run (sum)

  std::vector<ClassReport> classes;  ///< sorted by input_class

  /// Aligned text rendering (the CLI's default output).
  std::string str() const;
};

/// JSON serialisation (schema versioned, alongside perf/contract_io's
/// contract schema; see README "Monitor report schema").
std::string report_to_json(const MonitorReport& report);

}  // namespace bolt::monitor
