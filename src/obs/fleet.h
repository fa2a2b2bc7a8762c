// Fleet mode — serialised partial monitor state and the merger that folds
// any number of instances' partials back into one report.
//
// A fleet deployment runs N streaming monitors (monitor/follow.h) over the
// same traffic, each owning a disjoint subset of the flow-affine
// partitions. Every instance spools one *window partial* per closed delta
// window (its per-class accumulators plus the window's run bookkeeping)
// and one *final partial* at drain (stream length, state residents,
// telemetry). `bolt_cli merge` — or merge_partials() directly — folds any
// subset ordering of those files into a fleet-wide delta stream and final
// report that are byte-identical to a single monitor over the concatenated
// traffic:
//
//  * every serialised accumulator is order-independent (monitor/accum.h),
//    so instances and windows can merge in any order;
//  * duplicated partials (a retried upload, a copied spool) deduplicate by
//    (instance, window) before merging;
//  * the merged state renders through the same build_report /
//    build_delta_window paths as the batch engine, and the drift detector
//    replays over the merged window sequence in ascending order — alerts
//    land in the same windows a single instance would have raised them in.
//
// The partial format is schema-versioned JSON (one object per file;
// docs/OBSERVABILITY.md "Fleet partial schema"). Quantile sketches travel
// as their raw sparse bucket state — perf::QuantileSketch::restore()
// validates on the way back in, so a corrupted partial fails loudly
// instead of merging quietly wrong.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/accum.h"
#include "obs/telemetry.h"

namespace bolt::obs {

/// Fleet partial schema version (bump on any key change).
inline constexpr std::int64_t kFleetSchemaVersion = 2;

/// One instance's view of one closed delta window: per-class accumulators
/// (only classes that saw traffic) plus the window's run bookkeeping.
struct WindowPartial {
  std::string nf;
  std::uint32_t instance = 0;
  std::uint32_t instances = 1;
  std::uint64_t window = 0;
  std::uint64_t window_ns = 0;  ///< 0 when delta mode is off (single window)
  /// Class names parallel to `accums` — only classes with packets > 0.
  std::vector<std::string> classes;
  std::vector<monitor::ClassAccum> accums;
  // Window-scoped run bookkeeping (monitor/follow.h WindowStats).
  std::uint64_t packets = 0;  ///< owned packets that landed in this window
  std::uint64_t unattributed = 0;
  std::uint64_t first_unattributed = 0;
  bool any_unattributed = false;
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t expired_idle = 0;
  std::uint64_t high_water = 0;
  std::uint64_t late_packets = 0;
};

/// One instance's end-of-stream summary: everything the final report needs
/// that is not per-window (stream length, resident state, telemetry), plus
/// the run configuration the merger validates for consistency.
struct FinalPartial {
  std::string nf;
  std::uint32_t instance = 0;
  std::uint32_t instances = 1;
  /// Full stream length — every instance feeds the same stream, so all
  /// finals agree (the merger takes the max, which tolerates an instance
  /// drained early).
  std::uint64_t stream_packets = 0;
  std::uint64_t partitions = 0;
  bool cycles_checked = true;
  std::uint64_t epoch_ns = 0;  ///< the *option* value (report derives eff.)
  std::uint64_t max_offenders = 0;
  /// Contract entry names in contract order — the merged accumulator
  /// layout. All finals must agree.
  std::vector<std::string> entries;
  std::uint64_t residents = 0;  ///< live state entries in owned partitions
  bool state_tracked = false;
  bool has_telemetry = false;
  MonitorTelemetry telemetry;  ///< valid when has_telemetry
};

/// Canonical JSON (one object, fixed key order — the byte layout is part
/// of the schema, like every other artifact in this repo).
std::string window_partial_to_json(const WindowPartial& p);
std::string final_partial_to_json(const FinalPartial& p);

/// Strict parsers (support::JsonReader; abort with offset on mismatch).
WindowPartial parse_window_partial(const std::string& text);
FinalPartial parse_final_partial(const std::string& text);

/// Spool file naming: `<dir>/<nf>.i<instance>.w<window>.json` and
/// `<dir>/<nf>.i<instance>.final.json`. Re-emitting a window overwrites
/// its file (an idle-flush partial is superseded by the authoritative
/// close), so a spool never holds two generations of one window.
std::string spool_window_path(const std::string& dir, const std::string& nf,
                              std::uint32_t instance, std::uint64_t window);
std::string spool_final_path(const std::string& dir, const std::string& nf,
                             std::uint32_t instance);

/// Reads every partial for `nf` under `dir` (by the naming scheme above,
/// scanned in sorted filename order so the result is deterministic).
/// Aborts on an unparsable file; missing directory or no matching files
/// yields empty vectors.
void read_spool(const std::string& dir, const std::string& nf,
                std::vector<WindowPartial>* windows,
                std::vector<FinalPartial>* finals);

struct FleetMergeResult {
  monitor::MonitorReport report;
  /// Merged delta stream (ascending window order) + alerts + telemetry —
  /// the same bundle a single monitor's run would have produced.
  RunObservations observations;
};

/// The instances below the fleet size the partials declare that have no
/// final partial, ascending (at most the first 64). `bolt merge` refuses
/// to merge unless this is empty: a fleet with a missing final would
/// report one instance's stream as the whole.
std::vector<std::uint32_t> missing_finals(
    const std::vector<WindowPartial>& windows,
    const std::vector<FinalPartial>& finals);

/// Folds partials from any subset of instances, in any order, duplicates
/// included, into the fleet-wide report and delta stream. Requires at
/// least one final partial (the merged layout and stream length come from
/// finals) and aborts on inconsistent configuration across partials
/// (different nf, partitions, window_ns, entry list, ...). The drift
/// detector replays over the merged windows with `drift`'s tuning — pass
/// the same options the instances ran with to reproduce their alerts.
FleetMergeResult merge_partials(const std::vector<WindowPartial>& windows,
                                const std::vector<FinalPartial>& finals,
                                const DriftOptions& drift);

}  // namespace bolt::obs
