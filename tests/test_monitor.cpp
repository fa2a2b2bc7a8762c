// The contract monitor's own contract:
//  * every packet of a well-formed workload is attributed to a contract
//    input class, and compliant runs report zero violations (the paper's
//    essential property, checked online);
//  * an injected cost perturbation (measurement framework more expensive
//    than the one the contract was generated for) is reported as a
//    violation with class, packet index, and predicted vs measured values;
//  * reports are byte-identical at 1, 2, and 8 threads and at every batch
//    size (the compiled-expression VM itself is checked against the
//    tree-walk reference in tests/test_expr_vm.cpp);
//  * sharding is flow-affine.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/flow.h"
#include "net/workload.h"
#include "perf/contract_io.h"

namespace bolt::monitor {
namespace {

using perf::Metric;

/// Generates the contract for a named target (the generation-side half).
core::GenerationResult contract_for(const std::string& name,
                                    perf::PcvRegistry& reg) {
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target(name, reg, target));
  core::ContractGenerator gen(reg);
  return gen.generate(target.analysis());
}

std::vector<net::Packet> workload_for(const std::string& name,
                                      std::size_t count) {
  if (name == "bridge") {
    net::BridgeSpec spec;
    spec.stations = 300;
    spec.broadcast_fraction = 0.1;
    spec.packet_count = count;
    return net::bridge_traffic(spec);
  }
  net::ZipfSpec spec;
  spec.flow_pool = 512;
  spec.skew = 1.1;
  spec.packet_count = count;
  return net::zipf_traffic(spec);
}

class MonitorSoundness : public ::testing::TestWithParam<const char*> {};

TEST_P(MonitorSoundness, CompliantRunsHaveZeroViolations) {
  const std::string name = GetParam();
  perf::PcvRegistry reg;
  const auto result = contract_for(name, reg);
  const auto packets = workload_for(name, 4000);

  MonitorOptions opts;
  opts.partitions = 4;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory(name));

  EXPECT_EQ(report.packets, packets.size());
  EXPECT_EQ(report.unattributed, 0u)
      << "first unattributed: packet " << report.first_unattributed_packet;
  EXPECT_EQ(report.attributed, packets.size());
  EXPECT_EQ(report.violations, 0u) << report.str();

  // State/epoch fields are only meaningful for stateful targets; a
  // stateless chain must report them as explicitly untracked.
  const bool stateful = name != "fw+router";
  EXPECT_EQ(report.state_tracked, stateful);
  if (!stateful) {
    EXPECT_EQ(report.epoch_ns, 0u);
    EXPECT_EQ(report.state_high_water, 0u);
    EXPECT_EQ(report.state_residents, 0u);
  } else {
    EXPECT_GT(report.state_residents, 0u);
  }

  // Per-class packet counts add up, and observed classes have offenders
  // recorded (the compliance-headroom view).
  std::uint64_t across = 0;
  for (const ClassReport& c : report.classes) {
    across += c.packets;
    if (c.packets > 0) {
      EXPECT_FALSE(c.offenders.empty()) << c.input_class;
      for (const Offender& o : c.offenders) {
        EXPECT_LT(o.packet_index, packets.size());
        EXPECT_LE(static_cast<std::int64_t>(o.measured), o.predicted);
      }
    }
  }
  EXPECT_EQ(across, packets.size());
}

INSTANTIATE_TEST_SUITE_P(Targets, MonitorSoundness,
                         ::testing::Values("nat", "bridge", "fw+router"));

TEST(Monitor, ReportsAreByteIdenticalAcrossThreadCounts) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 3000);

  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    MonitorOptions opts;
    opts.partitions = 8;
    opts.threads = threads;
    MonitorEngine engine(result.contract, reg, opts);
    const MonitorReport report =
        engine.run(packets, MonitorEngine::named_factory("nat"));
    const std::string json = report_to_json(report);
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
    }
  }
  EXPECT_NE(baseline.find("\"violations\":0"), std::string::npos);
}

TEST(Monitor, ShardGroupingPolicyNeverChangesReportBytes) {
  // Grouping (like shards and threads) is execution-only as of the
  // partition/shard split: longest-queue-first may change which queue runs
  // a partition, never what the partition computes. Exercise it under
  // heavily skewed traffic — the case the policy exists for — across a
  // shard x thread grid, with per-packet attribution also compared.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  net::ZipfSpec spec;
  spec.flow_pool = 48;  // few flows -> few hot partitions
  spec.skew = 2.0;
  spec.packet_count = 3000;
  const auto packets = net::zipf_traffic(spec);

  std::string baseline;
  std::vector<std::uint32_t> baseline_attr;
  for (const ShardGrouping grouping :
       {ShardGrouping::kRoundRobin, ShardGrouping::kLongestQueueFirst}) {
    for (const std::size_t shards : {std::size_t(1), std::size_t(3),
                                     std::size_t(8)}) {
      for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
        MonitorOptions opts;
        opts.partitions = 8;
        opts.shards = shards;
        opts.threads = threads;
        opts.grouping = grouping;
        MonitorEngine engine(result.contract, reg, opts);
        std::vector<std::uint32_t> attr;
        const MonitorReport report =
            engine.run(packets, MonitorEngine::named_factory("nat"), &attr);
        const std::string json = report_to_json(report);
        if (baseline.empty()) {
          baseline = json;
          baseline_attr = attr;
        } else {
          EXPECT_EQ(json, baseline)
              << "grouping=" << static_cast<int>(grouping)
              << " shards=" << shards << " threads=" << threads;
          EXPECT_EQ(attr, baseline_attr);
        }
      }
    }
  }
}

TEST(Monitor, BatchSizeNeverChangesReportBytes) {
  // Batch size is an execution-only knob: rows are validated independently
  // and every accumulator is order-independent, so where a batch boundary
  // falls cannot leak into the report. batch=1 degenerates to per-packet
  // validation; batch=1024 exceeds the whole per-partition packet count so
  // everything validates in the final flush; batch=3 puts boundaries in
  // awkward mid-class places.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 3000);

  std::string baseline;
  std::vector<std::uint32_t> baseline_attr;
  for (const std::size_t batch :
       {std::size_t(1), std::size_t(3), std::size_t(64), std::size_t(1024)}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(4)}) {
      MonitorOptions opts;
      opts.partitions = 8;
      opts.batch = batch;
      opts.threads = threads;
      MonitorEngine engine(result.contract, reg, opts);
      std::vector<std::uint32_t> attr;
      const MonitorReport report =
          engine.run(packets, MonitorEngine::named_factory("nat"), &attr);
      const std::string json = report_to_json(report);
      if (baseline.empty()) {
        baseline = json;
        baseline_attr = attr;
      } else {
        EXPECT_EQ(json, baseline) << "batch=" << batch
                                  << " threads=" << threads;
        EXPECT_EQ(attr, baseline_attr);
      }
    }
  }
}

TEST(Monitor, InjectedCostPerturbationIsReported) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 2000);

  // The contract was generated for the standard framework; measure with an
  // inflated one (a "framework regression": rx path got 50% pricier).
  MonitorOptions opts;
  opts.partitions = 4;
  opts.framework.rx_instructions += opts.framework.rx_instructions / 2;
  opts.framework.rx_accesses += opts.framework.rx_accesses / 2;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));

  EXPECT_EQ(report.unattributed, 0u);
  EXPECT_GT(report.violations, 0u);

  // Violations carry a reproducer: class, packet index, predicted vs
  // measured, with measured exceeding the bound.
  bool found = false;
  for (const ClassReport& c : report.classes) {
    for (const Offender& o : c.offenders) {
      if (static_cast<std::int64_t>(o.measured) <= o.predicted) continue;
      found = true;
      EXPECT_FALSE(c.input_class.empty());
      EXPECT_LT(o.packet_index, packets.size());
      EXPECT_GT(static_cast<std::int64_t>(o.measured), o.predicted);
    }
    // Histogram overflow bucket mirrors the violation count per metric.
    for (const auto& mr : c.metrics) {
      EXPECT_EQ(mr.histogram[kViolationBucket], mr.violations);
    }
  }
  EXPECT_TRUE(found) << report.str();

  // The JSON rendering carries the top-level violation count.
  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"violations\":" + std::to_string(report.violations)),
            std::string::npos);
}

TEST(Monitor, HeadroomSketchesAreCoherent) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 3000);

  MonitorOptions opts;
  opts.partitions = 4;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));

  for (const ClassReport& c : report.classes) {
    for (const perf::Metric m : perf::kAllMetrics) {
      const MetricReport& mr = c.metrics[perf::metric_index(m)];
      const QuantileSummary& s = mr.headroom_pm;
      // Every attributed packet of the class feeds the sketch.
      EXPECT_EQ(s.count, c.packets) << c.input_class;
      // Quantiles are monotone and capped by the recorded max.
      EXPECT_LE(s.p50, s.p90) << c.input_class;
      EXPECT_LE(s.p90, s.p99) << c.input_class;
      EXPECT_LE(s.p99, s.p999) << c.input_class;
      EXPECT_LE(s.p999, s.max + s.max / 32 + 1) << c.input_class;
      // Compliant run: nothing past the bound (1000 per-mille).
      EXPECT_LE(s.max, 1000u) << c.input_class;
    }
    // No violations -> empty margin distribution.
    EXPECT_EQ(c.violation_margin_pm.count, 0u) << c.input_class;
  }
}

TEST(Monitor, ViolationMarginSketchTracksViolations) {
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const auto packets = workload_for("nat", 2000);

  MonitorOptions opts;
  opts.partitions = 4;
  opts.framework.rx_instructions += opts.framework.rx_instructions / 2;
  opts.framework.rx_accesses += opts.framework.rx_accesses / 2;
  MonitorEngine engine(result.contract, reg, opts);
  const MonitorReport report =
      engine.run(packets, MonitorEngine::named_factory("nat"));
  ASSERT_GT(report.violations, 0u);

  std::uint64_t margins = 0;
  for (const ClassReport& c : report.classes) {
    std::uint64_t class_violations = 0;
    for (const auto& mr : c.metrics) class_violations += mr.violations;
    EXPECT_EQ(c.violation_margin_pm.count, class_violations)
        << c.input_class;
    if (class_violations > 0) {
      EXPECT_GT(c.violation_margin_pm.max, 0u) << c.input_class;
    }
    margins += c.violation_margin_pm.count;
  }
  EXPECT_EQ(margins, report.violations);
}

TEST(Monitor, ShardingIsFlowAffine) {
  net::ZipfSpec spec;
  spec.flow_pool = 64;
  spec.packet_count = 2000;
  const auto packets = net::zipf_traffic(spec);
  std::map<std::uint64_t, std::size_t> shard_of_flow;
  std::set<std::size_t> used;
  for (const net::Packet& p : packets) {
    const auto tuple = net::extract_five_tuple(p);
    ASSERT_TRUE(tuple.has_value());
    const std::size_t s = partition_of(p, 8);
    ASSERT_LT(s, 8u);
    used.insert(s);
    const auto [it, inserted] = shard_of_flow.emplace(tuple->key(), s);
    EXPECT_EQ(it->second, s);  // one flow never splits across shards
  }
  EXPECT_GT(used.size(), 4u);  // and flows actually spread out
}

}  // namespace
}  // namespace bolt::monitor
