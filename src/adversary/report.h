// Gap reports — the measured half of the adversary's closed loop.
//
// replay() streams a synthesised trace through monitor::MonitorEngine in
// pre-attributed mode and folds the monitor's observations back onto the
// plan: per contract class, how many packets the plan aimed there vs how
// many the monitor attributed there, how much of the contract bound the
// measured p99 actually consumed (headroom quantiles from the monitor's
// sketches), and which classes the trace failed to reach at all. A
// mismatch — a packet the shadow attributed to class A that the monitor
// put in class B — means the synthesiser's model of the NF diverged from
// the real thing and is always a bug worth investigating; the count is
// front and centre.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "monitor/monitor.h"
#include "monitor/report.h"
#include "perf/contract.h"
#include "perf/pcv.h"

namespace bolt::adversary {

/// Per-class coverage + bound-consumption summary.
struct ClassGap {
  std::string input_class;
  std::uint64_t planned = 0;   ///< trace packets pre-attributed here
  std::uint64_t observed = 0;  ///< packets the monitor attributed here
  bool reached = false;        ///< observed > 0
  std::uint64_t violations = 0;
  /// p99 of measured/bound in per-mille, per metric (monitor sketch).
  std::array<std::uint64_t, 3> p99_util_pm{};
  /// max over metrics of p99_util_pm — "how much of the bound the trace
  /// provably consumes" (>= 800 means the p99 ate 80% of the bound).
  std::uint64_t best_p99_util_pm = 0;
  std::string note;  ///< synthesis note (unreached reason etc.)
};

struct GapReport {
  std::string nf;
  std::uint64_t packets = 0;
  /// Packets whose monitor attribution differs from the plan's (0 on a
  /// healthy loop; any other value is a synthesiser/monitor divergence).
  std::uint64_t mismatched = 0;
  std::uint64_t first_mismatch = 0;  ///< valid when mismatched > 0
  std::size_t classes_total = 0;
  std::size_t classes_reached = 0;
  std::vector<ClassGap> classes;  ///< contract entry order
  /// The full underlying monitor report (violations, sketches, offenders).
  monitor::MonitorReport monitor;

  std::vector<std::string> unreached_classes() const;
  /// Aligned text rendering (the CLI's default output).
  std::string str() const;
};

/// JSON rendering of the gap summary (schema version 1; the monitor report
/// has its own schema and is written separately when wanted).
std::string gap_report_to_json(const GapReport& report);

/// Replays `trace` through the monitor against `contract` and measures the
/// gap. `options.partitions` and `options.epoch_ns` are overridden from the
/// trace (they are part of the plan's semantics); threads and the engine
/// remain free execution knobs — the report is byte-identical under all of
/// them.
GapReport replay(const AdversarialTrace& trace, const perf::Contract& contract,
                 const perf::PcvRegistry& reg,
                 monitor::MonitorOptions options = {});

}  // namespace bolt::adversary
