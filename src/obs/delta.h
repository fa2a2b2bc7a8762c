// Epoch-aligned report deltas — the monitor's incremental reporting mode.
//
// A long monitoring run used to produce exactly one report blob at
// end-of-run. Delta mode turns it into a time series: packets are bucketed
// into windows of `delta_every` epochs purely by their timestamp
// (window = ts / (epoch_ns * delta_every) — a function of the packet, not
// of scheduling), each window accumulates per-class violation counts and
// headroom sketches, and the per-partition window maps are merged once at
// end of run exactly like the main report's accumulators. Because the
// window key is semantic and every accumulator is merge-order independent,
// the delta stream is byte-deterministic across the execution-only knobs
// (threads, engine, telemetry), and merging all of a run's window
// sketches reproduces the final report's sketch state —
// tests/test_obs.cpp locks both properties down.
//
// Each window renders as one JSON line (JSONL), so an operator can tail
// the stream (`bolt_cli monitor --watch`), archive it (`--delta-out`), or
// feed it to the drift detector (obs/drift.h), whose alerts are embedded
// in the window where they were raised.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/drift.h"
#include "perf/metric.h"
#include "perf/quantile_sketch.h"

namespace bolt::obs {

/// Delta stream JSON schema version (one object per line, one line per
/// window; see docs/OBSERVABILITY.md "Delta schema").
inline constexpr std::int64_t kDeltaSchemaVersion = 1;

/// Per-window, per-class, per-metric accumulation. The raw sketch is kept
/// (not just its summary) so windows can be re-merged — the determinism
/// tests rebuild the end-of-run sketch state from the stream.
struct DeltaMetric {
  std::uint64_t violations = 0;
  perf::QuantileSketch headroom_pm;  ///< utilization per-mille, this window
};

struct DeltaClass {
  std::string input_class;
  std::uint64_t packets = 0;
  std::array<DeltaMetric, 3> metrics;  ///< indexed by perf::metric_index
};

struct DeltaWindow {
  std::uint64_t window = 0;     ///< ts / window_ns
  std::uint64_t window_ns = 0;  ///< epoch_ns * delta_every
  std::uint64_t packets = 0;    ///< attributed packets in this window
  std::uint64_t violations = 0;
  /// Classes with traffic this window, sorted by input_class.
  std::vector<DeltaClass> classes;
  /// Drift alerts raised at this window (obs/drift.h).
  std::vector<DriftAlert> alerts;
};

/// One JSONL line (no trailing newline). Byte-deterministic given the
/// window contents.
std::string delta_window_to_json(const DeltaWindow& w);

}  // namespace bolt::obs
