// Contract-drift detection — the telemetry layer's early-warning channel.
//
// A violation is the monitor's *last* line of defence: by the time one is
// reported, the bound has already been broken in production. The drift
// detector watches the trend instead: per (input class, metric) it tracks
// the p99 headroom utilization (per-mille of the bound) across the delta
// windows the incremental reporting mode emits (src/obs/delta.h), fits a
// robust slope over a ring of recent windows, and raises a structured
// alert when the trend projects a bound crossing within a configurable
// horizon — before any packet has violated.
//
// The slope estimator is Theil–Sen (the median of all pairwise slopes),
// computed in exact integer/rational arithmetic: it shrugs off a single
// outlier window (a GC-like burst, one anomalous tail) that would drag a
// least-squares fit, and it is a pure function of the point multiset, so
// alerts inherit the delta stream's determinism — a drifting trace alerts
// at the same window on every machine and at every thread count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perf/metric.h"

namespace bolt::obs {

/// Tuning knobs for the drift detector. The defaults are validated by
/// tests/test_obs.cpp: they alert on the synthetic headroom-eroding
/// workload (net::drift_traffic) and stay silent on the stationary
/// zipf/longrun workloads.
struct DriftOptions {
  /// Recent windows kept per (class, metric) series.
  std::size_t window_ring = 8;
  /// Minimum points before a slope is computed (no alerts earlier).
  std::size_t min_points = 4;
  /// The bound in the series' unit (utilization per-mille: 1000 = at the
  /// contract bound).
  std::uint64_t bound_pm = 1000;
  /// Alert when the projected crossing is at most this many windows away.
  std::uint64_t horizon_windows = 32;
  /// Ignore slopes below this (milli-per-mille per window): stationary
  /// series jitter around zero and must not page anyone. With the adaptive
  /// baseline (below) this is the *floor* — the warmup threshold while a
  /// series' slope history is still short, and the lower bound the learned
  /// threshold can never drop under.
  std::int64_t min_slope_mpm = 500;
  /// Per-(class, metric) adaptive baseline: each series keeps a rolling
  /// history of its own Theil–Sen slopes (every computed slope, trending
  /// or not — so seasonal swings populate it) and a slope only counts as
  /// trending when it clears the learned band, median(history) +
  /// baseline_mad_k * MAD(history), *strictly*. Seasonal workloads whose
  /// p99 routinely ramps learn their own ramps and go quiet after the
  /// first period; a genuinely novel erosion still trips at the floor
  /// during warmup. Disable to recover the fixed global threshold.
  bool adaptive = true;
  /// Slope-history samples kept per series (the learning window).
  std::size_t baseline_ring = 16;
  /// History needed before the learned band arms; until then only the
  /// min_slope_mpm floor applies (so short-lived series still alert).
  std::size_t baseline_min = 6;
  /// Band width: median + this many MADs (median absolute deviations).
  std::int64_t baseline_mad_k = 4;
};

/// A structured drift alert: "class X's metric M p99 headroom is trending
/// toward the bound". Embedded in the delta window where it was raised and
/// surfaced through the CLI's distinct exit code (3).
struct DriftAlert {
  std::uint64_t window = 0;       ///< delta window id where raised
  std::string input_class;
  perf::Metric metric = perf::Metric::kInstructions;
  std::uint64_t p99_pm = 0;       ///< latest p99 utilization (per-mille)
  std::int64_t slope_mpm = 0;     ///< Theil–Sen slope, milli-pm per window
  std::uint64_t eta_windows = 0;  ///< projected windows until the bound
};

/// Streaming drift detector. Feed one (window, p99) point per series per
/// delta window, in window order; observe() returns true (and fills
/// `alert`) on the window where a series first trips the criteria, and
/// re-arms once the series stops trending (hysteresis — a sustained drift
/// raises one alert, not one per window).
class DriftDetector {
 public:
  explicit DriftDetector(const DriftOptions& opts = {});

  bool observe(const std::string& input_class, perf::Metric metric,
               std::uint64_t window, std::uint64_t p99_pm, DriftAlert* alert);

 private:
  struct Series {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;  // (x, y)
    /// Ring of recent Theil–Sen slopes (milli-pm per window, signed) — the
    /// per-series baseline the adaptive band is learned from.
    std::vector<std::int64_t> slope_history;
    bool alerted = false;  ///< hysteresis latch
  };

  DriftOptions opts_;
  /// Ordered map for deterministic iteration in debug dumps; keyed by
  /// (class, metric index).
  std::map<std::pair<std::string, int>, Series> series_;
};

}  // namespace bolt::obs
