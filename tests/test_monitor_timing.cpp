// Timing gates on the monitor's fast paths, single-threaded NAT runs over
// 200k Zipf packets:
//
//  * Telemetry overhead: the hot-path counters (MonitorOptions::telemetry)
//    cost at most 5% of the run.
//  * Native code: the registered NAT's native code is faster than the
//    reference interpreter.
//
// Estimator: the median, over interleaved pairs of runs, of the pair's
// time ratio. Pairing adjacent runs cancels slow host drift, alternating
// which side of a pair runs first keeps a host that speeds up or slows
// down mid-test from favouring either side, and the median discards the
// pairs that a burst of load from other processes hits. The telemetry gate
// takes 31 pairs: on a shared 4-CPU host a median of 7 swung by ±5% around
// a true 0% overhead, one of 31 stays within ±3%. Native code runs about
// 1.5x the reference interpreter's speed, far from its bound, so 7 pairs
// do. Every timed run must also report zero violations and zero
// unattributed packets: the speed of a monitor that mis-measures is
// meaningless.
//
// ctest runs this target alone (RUN_SERIAL), so parallel tests cannot skew
// it. The gates only hold for an optimised, uninstrumented build: in a
// build without NDEBUG or with a sanitizer (BOLT_SANITIZED, set by CMake
// from BOLT_SANITIZE) every test skips.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "support/bench.h"

namespace bolt::monitor {
namespace {


#if defined(NDEBUG) && !defined(BOLT_SANITIZED)
constexpr bool kTimedBuild = true;
#else
constexpr bool kTimedBuild = false;
#endif

struct NatRun {
  perf::PcvRegistry reg;
  perf::Contract contract{""};
  std::vector<net::Packet> packets;
};

const NatRun& nat_run() {
  static const NatRun* run = [] {
    auto* r = new NatRun;
    core::NfTarget target;
    EXPECT_TRUE(core::make_named_target("nat", r->reg, target));
    core::ContractGenerator gen(r->reg);
    r->contract = gen.generate(target.analysis()).contract;
    net::ZipfSpec spec;
    spec.flow_pool = 2048;
    spec.skew = 1.1;
    spec.packet_count = 200'000;
    r->packets = net::zipf_traffic(spec);
    return r;
  }();
  return *run;
}

struct RunConfig {
  bool telemetry = false;
  ir::EngineKind engine = ir::EngineKind::kNative;
};

/// Wall seconds of one 1-thread monitor run.
double run_seconds(const RunConfig& config) {
  const NatRun& nat = nat_run();
  MonitorOptions opts;
  opts.threads = 1;
  opts.telemetry = config.telemetry;
  opts.engine = config.engine;
  const MonitorEngine monitor(nat.contract, nat.reg, opts);
  obs::RunObservations observations;
  support::BenchTimer timer;
  const MonitorReport report =
      monitor.run(nat.packets, MonitorEngine::named_factory("nat"), nullptr,
                  config.telemetry ? &observations : nullptr);
  const double seconds = timer.elapsed_ms() / 1000.0;
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.unattributed, 0u);
  return seconds;
}

/// Median over `pairs` interleaved pairs of time(a) / time(b), after one
/// untimed warm-up run of each.
double median_time_ratio(const RunConfig& a, const RunConfig& b, int pairs) {
  run_seconds(a);
  run_seconds(b);
  std::vector<double> ratios;
  for (int i = 0; i < pairs; ++i) {
    double time_a = 0;
    double time_b = 0;
    if (i % 2 == 0) {
      time_a = run_seconds(a);
      time_b = run_seconds(b);
    } else {
      time_b = run_seconds(b);
      time_a = run_seconds(a);
    }
    ratios.push_back(time_a / time_b);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

class MonitorTiming : public testing::Test {
 protected:
  void SetUp() override {
    if (!kTimedBuild) {
      GTEST_SKIP() << "timing gates need an optimised build without "
                      "sanitizers (NDEBUG set, BOLT_SANITIZE empty)";
    }
  }
};

TEST_F(MonitorTiming, TelemetryOverheadAtMostFivePercent) {
  RunConfig off;
  RunConfig on;
  on.telemetry = true;
  const double overhead_pct = (1.0 - median_time_ratio(off, on, 31)) * 100.0;
  RecordProperty("telemetry_overhead_pct", std::to_string(overhead_pct));
  EXPECT_LE(overhead_pct, 5.0)
      << "telemetry costs " << overhead_pct << "% of the 1-thread run";
}

TEST_F(MonitorTiming, NativeCodeBeatsTheReferenceInterpreter) {
  RunConfig reference;
  reference.engine = ir::EngineKind::kReference;
  const double speedup = median_time_ratio(reference, RunConfig{}, 7);
  RecordProperty("native_speedup", std::to_string(speedup));
  EXPECT_GT(speedup, 1.0) << "native code runs at " << speedup
                          << "x the reference interpreter";
}

}  // namespace
}  // namespace bolt::monitor
