// Hot-path telemetry — low-overhead execution counters for the monitor's
// per-packet loop, plus the bundle the engine fills for one run.
//
// The counters answer "what did the machine do" (attribution memo hits,
// batch fill, VM dispatches), never "what did the traffic do" — the report
// answers that. The split is a hard invariant: telemetry is
// *execution-only*, collected in per-partition locals, folded together
// after the workers join, and provably unable to change report bytes
// (tests/test_obs.cpp compares reports with telemetry on and off, byte for
// byte; tests/test_monitor_timing.cpp gates the overhead at 5%).
//
// Unlike the report and the delta stream, a telemetry snapshot is not
// invariant across execution paths — the streaming monitor validates one
// row at a time and fills no batches. That is the point: it is the one
// place execution shape is allowed to show.
//
// Exposition: JSON (one object) and the Prometheus text format, both
// written by `bolt_cli monitor --metrics-out FILE [--metrics-format
// json|prom]`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/delta.h"
#include "perf/quantile_sketch.h"

namespace bolt::obs {

/// Execution counters for one monitor run (or one worker's share of it —
/// merge() folds worker-locals into the run snapshot).
struct MonitorTelemetry {
  // --- execute/attribute ---
  std::uint64_t packets_executed = 0;    ///< packets run through the NF
  std::uint64_t attr_memo_hits = 0;      ///< class-key memo short-circuits
  std::uint64_t batches_emitted = 0;     ///< SoA batches validated
  std::uint64_t batch_rows = 0;          ///< total rows across those batches
  perf::QuantileSketch batch_fill;       ///< rows per validated batch
  // --- validate ---
  std::uint64_t vm_batch_evals = 0;      ///< compiled-expr eval_batch calls
  std::uint64_t rows_validated = 0;
  // --- maintenance + reporting (filled at merge time) ---
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t state_high_water = 0;
  std::uint64_t delta_windows = 0;
  std::uint64_t drift_alerts = 0;

  /// Order-independent fold (sums; maxima for high-water marks).
  void merge(const MonitorTelemetry& other);
};

/// JSON exposition (one object; schema in docs/OBSERVABILITY.md).
std::string telemetry_to_json(const MonitorTelemetry& t, const std::string& nf);

/// Prometheus text exposition format (counters + a summary with the batch
/// fill quantiles), labelled with the NF name.
std::string telemetry_to_prometheus(const MonitorTelemetry& t,
                                    const std::string& nf);

/// Everything one monitor run observes beyond the report: the telemetry
/// snapshot, the delta window stream, and the drift alerts (each alert is
/// also embedded in its window). Pass to MonitorEngine::run() to opt in.
struct RunObservations {
  MonitorTelemetry telemetry;
  std::vector<DeltaWindow> deltas;
  std::vector<DriftAlert> alerts;
};

}  // namespace bolt::obs
