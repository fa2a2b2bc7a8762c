// The telemetry layer's own contract (src/obs/):
//  * telemetry is execution-only — report bytes are byte-identical with
//    the hot-path counters on or off, and at every --delta-every setting;
//  * the delta stream is byte-deterministic across the execution knobs
//    (threads x telemetry), because windows are keyed by packet
//    timestamp and every accumulator merges order-independently;
//  * merging all of a run's window sketches reproduces the final report's
//    sketch state exactly — the stream is a lossless decomposition;
//  * the drift detector alerts on the synthetic headroom-eroding workload
//    (net::drift_traffic) strictly before any violation, and stays silent
//    on stationary zipf/longrun traffic.
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "obs/drift.h"
#include "obs/telemetry.h"
#include "perf/quantile_sketch.h"

namespace bolt::obs {
namespace {

using perf::Metric;
using perf::kAllMetrics;
using perf::metric_index;

// ---------------------------------------------------------------------------
// Drift detector unit tests (pure, no monitor involved).

TEST(DriftDetector, RisingSeriesAlertsOnceBeforeTheBound) {
  DriftDetector det;
  std::vector<DriftAlert> alerts;
  // p99 ramps 800 -> 980 in 20 pm steps: clearly trending, never crossing.
  for (std::uint64_t w = 0; w < 10; ++w) {
    DriftAlert alert;
    if (det.observe("c", Metric::kInstructions, w, 800 + 20 * w, &alert)) {
      alerts.push_back(alert);
    }
  }
  ASSERT_EQ(alerts.size(), 1u);  // hysteresis: sustained drift, one alert
  const DriftAlert& a = alerts[0];
  EXPECT_EQ(a.window, 3u);  // first window with min_points (4) points
  EXPECT_EQ(a.input_class, "c");
  EXPECT_EQ(a.metric, Metric::kInstructions);
  EXPECT_EQ(a.p99_pm, 860u);
  EXPECT_EQ(a.slope_mpm, 20'000);  // exact: 20 pm/window
  EXPECT_EQ(a.eta_windows, 7u);    // ceil((1000-860)/20)
}

TEST(DriftDetector, FlatAndFallingSeriesStaySilent) {
  DriftDetector det;
  for (std::uint64_t w = 0; w < 20; ++w) {
    EXPECT_FALSE(det.observe("flat", Metric::kInstructions, w, 700, nullptr));
    EXPECT_FALSE(det.observe("down", Metric::kInstructions, w,
                             900 - 10 * w, nullptr));
    // Jitter around a stationary level: median pairwise slope is ~0.
    EXPECT_FALSE(det.observe("noisy", Metric::kInstructions, w,
                             600 + (w % 2) * 5, nullptr));
  }
}

TEST(DriftDetector, SingleOutlierDoesNotAlert) {
  // Theil-Sen: one spiked window in a flat series cannot drag the median
  // pairwise slope positive.
  DriftDetector det;
  for (std::uint64_t w = 0; w < 12; ++w) {
    const std::uint64_t p99 = (w == 5) ? 950 : 500;
    EXPECT_FALSE(det.observe("c", Metric::kCycles, w, p99, nullptr));
  }
}

TEST(DriftDetector, SeriesAtOrPastTheBoundDoesNotAlert) {
  // Drift alerts are an *early* warning; at/past the bound the violation
  // machinery owns the signal.
  DriftDetector det;
  bool alerted = false;
  for (std::uint64_t w = 0; w < 8; ++w) {
    alerted |= det.observe("c", Metric::kInstructions, w, 1000 + 20 * w,
                           nullptr);
  }
  EXPECT_FALSE(alerted);
}

TEST(DriftDetector, AdaptiveBaselineLearnsSeasonalRamps) {
  // A sawtooth whose ramp repeats every period: the per-series slope
  // history learns the recurring ramp slope, so after warmup the learned
  // band absorbs it. The fixed global threshold pages on every single
  // period — the operator noise the adaptive baseline exists to remove.
  const auto count_alerts = [](bool adaptive) {
    DriftOptions o;
    o.adaptive = adaptive;
    DriftDetector det(o);
    std::size_t alerts = 0;
    std::uint64_t w = 0;
    for (int period = 0; period < 6; ++period) {
      for (std::uint64_t s = 0; s < 8; ++s) {
        if (det.observe("c", Metric::kInstructions, w++, 700 + 20 * s,
                        nullptr)) {
          ++alerts;
        }
      }
    }
    return alerts;
  };
  EXPECT_EQ(count_alerts(false), 6u);  // one page per period, forever
  EXPECT_EQ(count_alerts(true), 1u);   // warmup only; then learned silence
}

TEST(DriftDetector, AdaptiveWarmupFloorStillCatchesNovelErosion) {
  // A series with a long flat habit (slope history full of ~zero slopes)
  // must still page when a genuinely novel erosion starts: the learned
  // band sits near zero, so the new ramp clears it immediately.
  DriftDetector det;  // defaults: adaptive on
  std::uint64_t w = 0;
  for (; w < 12; ++w) {
    EXPECT_FALSE(det.observe("c", Metric::kInstructions, w,
                             500 + (w % 2) * 2, nullptr));
  }
  std::size_t alerts = 0;
  for (int i = 0; i < 8; ++i) {
    if (det.observe("c", Metric::kInstructions, w++, 700 + 25 * i, nullptr)) {
      ++alerts;
    }
  }
  EXPECT_EQ(alerts, 1u);
}

TEST(DriftDetector, ReArmsAfterTheTrendBreaks) {
  DriftDetector det;
  std::size_t alerts = 0;
  std::uint64_t w = 0;
  const auto feed = [&](std::uint64_t p99) {
    if (det.observe("c", Metric::kInstructions, w++, p99, nullptr)) ++alerts;
  };
  for (std::uint64_t v = 800; v <= 860; v += 20) feed(v);  // ramp: 1 alert
  EXPECT_EQ(alerts, 1u);
  for (int i = 0; i < 8; ++i) feed(860);  // plateau: trend breaks, re-arms
  EXPECT_EQ(alerts, 1u);
  for (std::uint64_t v = 880; v <= 940; v += 20) feed(v);  // second ramp
  EXPECT_EQ(alerts, 2u);
}

// ---------------------------------------------------------------------------
// Delta stream schema lockdown.

TEST(DeltaJson, SchemaIsExactlyAsDocumented) {
  DeltaWindow w;
  w.window = 2;
  w.window_ns = 1000;
  w.packets = 3;
  w.violations = 2;
  DeltaClass c;
  c.input_class = "c";
  c.packets = 3;
  c.metrics[metric_index(Metric::kInstructions)].violations = 2;
  w.classes.push_back(c);
  DriftAlert a;
  a.window = 2;
  a.input_class = "c";
  a.metric = Metric::kInstructions;
  a.p99_pm = 990;
  a.slope_mpm = 1500;
  a.eta_windows = 7;
  w.alerts.push_back(a);
  const std::string empty_summary =
      "{\"count\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"p999\":0,\"max\":0}";
  EXPECT_EQ(delta_window_to_json(w),
            "{\"version\":1,\"window\":2,\"window_start_ns\":2000,"
            "\"window_ns\":1000,\"packets\":3,\"violations\":2,"
            "\"classes\":[{\"input_class\":\"c\",\"packets\":3,\"metrics\":{"
            "\"instructions\":{\"violations\":2,\"headroom_pm\":" +
                empty_summary +
                "},\"memory accesses\":{\"violations\":0,\"headroom_pm\":" +
                empty_summary +
                "},\"cycles\":{\"violations\":0,\"headroom_pm\":" +
                empty_summary +
                "}}}],\"alerts\":[{\"input_class\":\"c\","
                "\"metric\":\"instructions\",\"p99_pm\":990,"
                "\"slope_mpm\":1500,\"eta_windows\":7}]}");
}

// ---------------------------------------------------------------------------
// Telemetry exposition.

TEST(Telemetry, JsonAndPrometheusExposition) {
  MonitorTelemetry t;
  t.packets_executed = 5;
  t.batches_emitted = 2;
  t.batch_rows = 5;
  t.batch_fill.add(2);
  t.batch_fill.add(3);
  t.vm_batch_evals = 1;
  const std::string json = telemetry_to_json(t, "nat");
  EXPECT_NE(json.find("\"nf\":\"nat\""), std::string::npos);
  EXPECT_NE(json.find("\"packets_executed\":5"), std::string::npos);
  EXPECT_NE(json.find("\"vm_batch_evals\":1"), std::string::npos);
  EXPECT_NE(json.find("\"batch_fill\":{\"count\":2"), std::string::npos);
  const std::string prom = telemetry_to_prometheus(t, "nat");
  EXPECT_NE(prom.find("# TYPE bolt_monitor_packets_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("bolt_monitor_packets_total{nf=\"nat\"} 5"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE bolt_monitor_batch_fill summary"),
            std::string::npos);
  EXPECT_NE(prom.find("bolt_monitor_batch_fill_count{nf=\"nat\"} 2"),
            std::string::npos);
}

TEST(Telemetry, PrometheusExpositionMatchesGoldenByteForByte) {
  // Full-exposition golden: every series must carry # HELP and # TYPE,
  // counters must end in _total, and the batch_fill summary must expose
  // quantiles + _sum/_count. The input is hand-built (telemetry from a
  // live run is execution-shaped and not reproducible); regenerate
  // tests/data/telemetry.prom from this exact struct after an intentional
  // exposition change.
  MonitorTelemetry t;
  t.packets_executed = 100;
  t.attr_memo_hits = 42;
  t.batches_emitted = 4;
  t.batch_rows = 100;
  t.batch_fill.add(10);
  t.batch_fill.add(20);
  t.batch_fill.add(30);
  t.batch_fill.add(40);
  t.vm_batch_evals = 12;
  t.rows_validated = 100;
  t.epoch_sweeps = 2;
  t.state_high_water = 17;
  t.delta_windows = 5;
  t.drift_alerts = 1;
  std::ifstream in(std::string(BOLT_TEST_DATA_DIR) + "/telemetry.prom",
                   std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing tests/data/telemetry.prom";
  EXPECT_EQ(telemetry_to_prometheus(t, "nat"), golden.str());
}

TEST(Telemetry, MergeSumsCountersAndKeepsHighWaters) {
  MonitorTelemetry a, b;
  a.packets_executed = 3;
  a.state_high_water = 9;
  b.packets_executed = 4;
  b.state_high_water = 2;
  a.merge(b);
  EXPECT_EQ(a.packets_executed, 7u);
  EXPECT_EQ(a.state_high_water, 9u);
  b.merge(a);
  EXPECT_EQ(b.state_high_water, 9u);
}

// ---------------------------------------------------------------------------
// End-to-end: monitor + delta + drift over the synthetic workloads.

struct RouterFixture {
  perf::PcvRegistry reg;
  core::GenerationResult gen;
};

RouterFixture& router() {
  static RouterFixture* f = [] {
    auto* r = new RouterFixture;
    core::NfTarget target;
    EXPECT_TRUE(core::make_named_target("router", r->reg, target));
    core::ContractGenerator g(r->reg);
    r->gen = g.generate(target.analysis());
    return r;
  }();
  return *f;
}

const std::vector<net::Packet>& drift_packets() {
  static auto* p = new std::vector<net::Packet>([] {
    net::DriftSpec spec;
    spec.packets_per_window = 200;  // 11 windows x 200 = 2200 packets
    return net::drift_traffic(spec);
  }());
  return *p;
}

struct RunOutput {
  monitor::MonitorReport report;
  std::string report_json;
  std::string delta_jsonl;
  RunObservations observations;
};

RunOutput run_drift(monitor::MonitorOptions opts) {
  RouterFixture& f = router();
  monitor::MonitorEngine engine(f.gen.contract, f.reg, opts);
  RunOutput out;
  out.report = engine.run(drift_packets(),
                          monitor::MonitorEngine::named_factory("router"),
                          nullptr, &out.observations);
  out.report_json = monitor::report_to_json(out.report);
  for (const DeltaWindow& w : out.observations.deltas) {
    out.delta_jsonl += delta_window_to_json(w);
    out.delta_jsonl += '\n';
  }
  return out;
}

TEST(DeltaDeterminism, GridOfExecutionKnobsIsByteIdentical) {
  monitor::MonitorOptions base;
  base.threads = 1;
  base.delta_every = 1;
  const RunOutput baseline = run_drift(base);
  ASSERT_GE(baseline.observations.deltas.size(), 10u);
  for (const std::size_t threads : {2, 4}) {
    for (const bool telemetry : {false, true}) {
      monitor::MonitorOptions o;
      o.threads = threads;
      o.delta_every = 1;
      // Telemetry rides along as an extra knob under test.
      o.telemetry = telemetry;
      const RunOutput got = run_drift(o);
      EXPECT_EQ(baseline.report_json, got.report_json)
          << "threads=" << threads << " telemetry=" << telemetry;
      EXPECT_EQ(baseline.delta_jsonl, got.delta_jsonl)
          << "threads=" << threads << " telemetry=" << telemetry;
    }
  }
}

TEST(DeltaDeterminism, ReportInvariantAcrossDeltaAndTelemetryKnobs) {
  monitor::MonitorOptions off;
  const std::string baseline = run_drift(off).report_json;
  for (const std::size_t every : {0, 1, 4}) {
    for (const bool telemetry : {false, true}) {
      monitor::MonitorOptions o;
      o.delta_every = every;
      o.telemetry = telemetry;
      EXPECT_EQ(baseline, run_drift(o).report_json)
          << "delta_every=" << every << " telemetry=" << telemetry;
    }
  }
}

/// Per-class merge of every delta window's sketches and counters.
struct MergedDeltas {
  std::map<std::string, std::array<perf::QuantileSketch, 3>> sketches;
  std::map<std::string, std::array<std::uint64_t, 3>> violations;
  std::map<std::string, std::uint64_t> packets;
};

MergedDeltas merge_deltas(const std::vector<DeltaWindow>& deltas) {
  MergedDeltas out;
  for (const DeltaWindow& w : deltas) {
    for (const DeltaClass& c : w.classes) {
      out.packets[c.input_class] += c.packets;
      for (const Metric m : kAllMetrics) {
        const int mi = metric_index(m);
        out.sketches[c.input_class][mi].merge(c.metrics[mi].headroom_pm);
        out.violations[c.input_class][mi] += c.metrics[mi].violations;
      }
    }
  }
  return out;
}

TEST(DeltaDeterminism, MergingWindowSketchesReproducesFinalReportState) {
  monitor::MonitorOptions fine;
  fine.delta_every = 1;
  const RunOutput fine_run = run_drift(fine);
  monitor::MonitorOptions coarse;
  coarse.delta_every = 4;
  const RunOutput coarse_run = run_drift(coarse);
  ASSERT_GT(fine_run.observations.deltas.size(),
            coarse_run.observations.deltas.size());

  const MergedDeltas a = merge_deltas(fine_run.observations.deltas);
  const MergedDeltas b = merge_deltas(coarse_run.observations.deltas);
  // Window width is execution-irrelevant to the totals: both merges are
  // the same multiset of values.
  ASSERT_EQ(a.packets, b.packets);
  ASSERT_EQ(a.violations, b.violations);
  for (const auto& [cls, sketches] : a.sketches) {
    const auto it = b.sketches.find(cls);
    ASSERT_NE(it, b.sketches.end());
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      EXPECT_EQ(sketches[mi], it->second[mi]) << cls << "/" << mi;
      EXPECT_EQ(sketches[mi].serialize(), it->second[mi].serialize());
    }
  }
  // And they reproduce the report's end-of-run sketch state exactly.
  for (const monitor::ClassReport& cr : fine_run.report.classes) {
    if (cr.packets == 0) {
      EXPECT_EQ(a.packets.count(cr.input_class), 0u);
      continue;
    }
    const auto pk = a.packets.find(cr.input_class);
    ASSERT_NE(pk, a.packets.end()) << cr.input_class;
    EXPECT_EQ(pk->second, cr.packets);
    const auto sk = a.sketches.find(cr.input_class);
    ASSERT_NE(sk, a.sketches.end());
    for (const Metric m : kAllMetrics) {
      const int mi = metric_index(m);
      const perf::QuantileSummary got = perf::summarize(sk->second[mi]);
      const perf::QuantileSummary& want = cr.metrics[mi].headroom_pm;
      EXPECT_EQ(got.count, want.count) << cr.input_class << "/" << mi;
      EXPECT_EQ(got.p50, want.p50) << cr.input_class << "/" << mi;
      EXPECT_EQ(got.p90, want.p90) << cr.input_class << "/" << mi;
      EXPECT_EQ(got.p99, want.p99) << cr.input_class << "/" << mi;
      EXPECT_EQ(got.p999, want.p999) << cr.input_class << "/" << mi;
      EXPECT_EQ(got.max, want.max) << cr.input_class << "/" << mi;
      EXPECT_EQ(a.violations.at(cr.input_class)[mi],
                cr.metrics[mi].violations);
    }
  }
}

TEST(Telemetry, CountersAreConsistentWithTheReport) {
  monitor::MonitorOptions o;
  o.telemetry = true;
  o.delta_every = 1;
  o.threads = 1;
  const RunOutput run = run_drift(o);
  const MonitorTelemetry& t = run.observations.telemetry;
  EXPECT_EQ(t.packets_executed, drift_packets().size());
  EXPECT_EQ(t.rows_validated, run.report.attributed);
  EXPECT_EQ(t.batch_rows, run.report.attributed);
  EXPECT_EQ(t.batch_fill.count(), t.batches_emitted);
  EXPECT_GT(t.vm_batch_evals, 0u);
  EXPECT_EQ(t.delta_windows, run.observations.deltas.size());
  EXPECT_EQ(t.drift_alerts, run.observations.alerts.size());
  std::uint64_t window_packets = 0;
  for (const DeltaWindow& w : run.observations.deltas) {
    window_packets += w.packets;
  }
  EXPECT_EQ(window_packets, run.report.attributed);
}

TEST(DriftWorkload, RampAlertsStrictlyBeforeAnyViolation) {
  monitor::MonitorOptions o;
  o.delta_every = 1;
  const RunOutput run = run_drift(o);
  // The synthesised erosion stays inside the bound the whole way...
  EXPECT_EQ(run.report.violations, 0u);
  EXPECT_EQ(run.report.unattributed, 0u);
  // ...yet the detector pages before the crossing would happen.
  ASSERT_FALSE(run.observations.alerts.empty());
  for (const DriftAlert& a : run.observations.alerts) {
    EXPECT_NE(a.input_class.find("ip_options"), std::string::npos)
        << a.input_class;
    EXPECT_LT(a.p99_pm, 1000u);
    EXPECT_GT(a.slope_mpm, 0);
    EXPECT_LE(a.eta_windows, monitor::MonitorOptions{}.drift.horizon_windows);
    // Each alert is embedded in the window where it was raised.
    bool embedded = false;
    for (const DeltaWindow& w : run.observations.deltas) {
      if (w.window != a.window) continue;
      for (const DriftAlert& wa : w.alerts) {
        embedded |= wa.input_class == a.input_class && wa.metric == a.metric;
      }
    }
    EXPECT_TRUE(embedded) << a.input_class;
  }
}

TEST(DriftWorkload, StationaryTrafficStaysSilent) {
  // Zipf through the NAT, with a millisecond epoch so the short trace still
  // spans ~20 delta windows (same shape CI's longrun smoke checks at scale).
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator g(reg);
  const core::GenerationResult gen = g.generate(target.analysis());
  net::ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.1;
  spec.packet_count = 20'000;
  const std::vector<net::Packet> packets = net::zipf_traffic(spec);
  monitor::MonitorOptions o;
  o.epoch_ns = 10'000'000;  // 10 ms
  o.delta_every = 1;
  monitor::MonitorEngine engine(gen.contract, reg, o);
  RunObservations observations;
  const monitor::MonitorReport report =
      engine.run(packets, monitor::MonitorEngine::named_factory("nat"),
                 nullptr, &observations);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_GE(observations.deltas.size(), 15u);
  EXPECT_TRUE(observations.alerts.empty());
  for (const DeltaWindow& w : observations.deltas) {
    EXPECT_TRUE(w.alerts.empty());
  }
}

}  // namespace
}  // namespace bolt::obs
