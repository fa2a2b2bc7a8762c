// The contract monitor's own contract:
//  * every packet of a well-formed workload is attributed to a contract
//    input class, and compliant runs report zero violations (the paper's
//    essential property, checked online);
//  * an injected cost perturbation (measurement framework more expensive
//    than the one the contract was generated for) is reported as a
//    violation with class, packet index, and predicted vs measured values;
//  * reports are byte-identical at 1, 2, and 8 threads and at every batch
//    size (the compiled-expression VM itself is checked against the
//    tree-walk reference in tests/test_expr_vm.cpp), and wherever the
//    engine's input chunks break;
//  * sharding is flow-affine, and the allocation-free partition hash puts
//    every input — well-formed, truncated or malformed — where the
//    parse-based formula does.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <set>
#include <string>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/flow.h"
#include "net/headers.h"
#include "net/mutate.h"
#include "net/packet_builder.h"
#include "net/workload.h"
#include "obs/delta.h"
#include "perf/contract_io.h"
#include "support/random.h"

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
  // Threads are execution-only: they change which pool thread runs a
  // partition, never what the partition computes. Checked on the default
  // workload and under heavily skewed traffic (few flows -> few hot
  // partitions), with per-packet attribution also compared.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  net::ZipfSpec skewed;
  skewed.flow_pool = 48;
  skewed.skew = 2.0;
  skewed.packet_count = 3000;

  for (const auto& packets :
       {workload_for("nat", 3000), net::zipf_traffic(skewed)}) {
    std::string baseline;
    std::vector<std::uint32_t> baseline_attr;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      MonitorOptions opts;
      opts.partitions = 8;
      opts.threads = threads;
      MonitorEngine engine(result.contract, reg, opts);
      std::vector<std::uint32_t> attr;
      const MonitorReport report =
          engine.run(packets, MonitorEngine::named_factory("nat"), &attr);
      const std::string json = report_to_json(report);
      if (baseline.empty()) {
        baseline = json;
        baseline_attr = attr;
        EXPECT_NE(baseline.find("\"violations\":0"), std::string::npos);
      } else {
        EXPECT_EQ(json, baseline) << "threads=" << threads;
        EXPECT_EQ(attr, baseline_attr) << "threads=" << threads;
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

/// Everything one run produces, rendered to bytes.
struct ChunkedRun {
  std::string report;
  std::string deltas;
  std::string alerts;
  std::vector<std::uint32_t> attribution;
  std::uint64_t expired_idle = 0;  ///< entries the epoch sweeps reclaimed
};

/// Runs `packets` through `engine` in chunks of `chunk` packets. Each
/// chunk's views live in one of kChunksInFlight buffers, reused in turn, so
/// a view the engine kept past the chunk's promised life would read a
/// later packet and change the bytes.
ChunkedRun run_in_chunks(const MonitorEngine& engine, const std::string& nf,
                         const std::vector<net::Packet>& packets,
                         std::size_t chunk) {
  ChunkedRun out;
  obs::RunObservations observations;
  std::array<std::vector<net::PacketView>, MonitorEngine::kChunksInFlight>
      buffers;
  std::size_t next = 0;
  std::size_t calls = 0;
  const MonitorReport report = engine.run(
      [&]() -> support::Span<const net::PacketView> {
        const std::size_t n = std::min(chunk, packets.size() - next);
        std::vector<net::PacketView>& views = buffers[calls++ % buffers.size()];
        views.assign(packets.begin() + next, packets.begin() + next + n);
        next += n;
        return views;
      },
      MonitorEngine::named_factory(nf), &out.attribution, &observations);
  out.report = report_to_json(report);
  out.expired_idle = report.state_expired_idle;
  for (const obs::DeltaWindow& w : observations.deltas) {
    out.deltas += obs::delta_window_to_json(w) + "\n";
  }
  for (const obs::DriftAlert& a : observations.alerts) {
    out.alerts += std::to_string(a.window) + " " + a.input_class + " " +
                  std::to_string(perf::metric_index(a.metric)) + " " +
                  std::to_string(a.p99_pm) + " " +
                  std::to_string(a.slope_mpm) + " " +
                  std::to_string(a.eta_windows) + "\n";
  }
  return out;
}

TEST(Monitor, ChunkBoundariesNeverChangeBytes) {
  // run() goes chunk by chunk, but each partition's runner, epoch clock,
  // open validation batches and delta accumulators live for the whole
  // run. So wherever the chunks break — single packets, either side of a
  // 64-row batch, or one chunk for the whole trace — the report, delta
  // stream, drift alerts and attribution are the same bytes. Router drift
  // traffic closes delta windows and raises drift alerts; NAT long-run
  // traffic crosses epochs and expires stale flows in bulk.
  net::DriftSpec drift;
  drift.packets_per_window = 300;
  net::LongRunSpec longrun;
  longrun.seed = 3;
  longrun.flow_pool = 256;
  longrun.packet_count = 4000;
  longrun.bursts = 32;
  longrun.rotation_bursts = 1;
  const std::pair<const char*, std::vector<net::Packet>> traces[] = {
      {"router", net::drift_traffic(drift)},
      {"nat", net::long_run_traffic(longrun)}};
  for (const auto& [nf, packets] : traces) {
    SCOPED_TRACE(nf);
    perf::PcvRegistry reg;
    const auto result = contract_for(nf, reg);
    ChunkedRun want;
    for (const std::size_t threads : {1u, 4u}) {
      MonitorOptions opts;
      opts.threads = threads;
      opts.delta_every = 1;
      const MonitorEngine engine(result.contract, reg, opts);
      if (want.report.empty()) {
        want = run_in_chunks(engine, nf, packets, packets.size());
        ASSERT_EQ(want.attribution.size(), packets.size());
        ASSERT_FALSE(want.deltas.empty());
        if (std::string(nf) == "router") {
          EXPECT_FALSE(want.alerts.empty());
        } else {
          EXPECT_GT(want.expired_idle, 0u);
        }
      }
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{1000}, packets.size()}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " chunk=" + std::to_string(chunk));
        const ChunkedRun got = run_in_chunks(engine, nf, packets, chunk);
        EXPECT_EQ(got.report, want.report);
        EXPECT_EQ(got.deltas, want.deltas);
        EXPECT_EQ(got.alerts, want.alerts);
        EXPECT_EQ(got.attribution, want.attribution);
      }
    }
  }
}

TEST(Monitor, EmptyInputStillBuildsEveryPartition) {
  // A partition that sees no packet still builds its NF, so the report
  // says whether the target tracks state and how much it holds.
  perf::PcvRegistry reg;
  const auto result = contract_for("nat", reg);
  const MonitorEngine engine(result.contract, reg, MonitorOptions{});
  const MonitorReport report = engine.run(
      std::vector<net::Packet>{}, MonitorEngine::named_factory("nat"));
  EXPECT_EQ(report.packets, 0u);
  EXPECT_TRUE(report.state_tracked);
  EXPECT_EQ(report.state_residents, 0u);
}

TEST(Monitor, ShardingIsFlowAffine) {
  net::ZipfSpec spec;
  spec.flow_pool = 64;
  spec.packet_count = 2000;
  const auto packets = net::zipf_traffic(spec);
  std::map<std::uint64_t, std::size_t> partition_of_flow;
  std::set<std::size_t> used;
  for (const net::Packet& p : packets) {
    const auto tuple = net::extract_five_tuple(p);
    ASSERT_TRUE(tuple.has_value());
    const std::size_t s = partition_of(p, 8);
    ASSERT_LT(s, 8u);
    used.insert(s);
    const auto [it, inserted] = partition_of_flow.emplace(tuple->key(), s);
    EXPECT_EQ(it->second, s);  // one flow never splits across partitions
  }
  EXPECT_GT(used.size(), 4u);  // and flows actually spread out
}

/// The five-tuple by the net:: parsers (what net::extract_five_tuple's
/// fixed-offset reads must equal).
std::optional<net::FiveTuple> parsed_five_tuple(const net::Packet& packet) {
  const auto buf = packet.bytes();
  const auto eth = net::parse_ethernet(buf);
  if (!eth || eth->ether_type != net::kEtherTypeIpv4) return std::nullopt;
  const auto ip = net::parse_ipv4(buf, net::kEthernetHeaderSize);
  if (!ip) return std::nullopt;
  const std::size_t l4 = net::kEthernetHeaderSize + ip->header_size();
  net::FiveTuple t{ip->src, ip->dst, 0, 0, ip->protocol};
  if (ip->protocol == net::kIpProtoTcp) {
    const auto tcp = net::parse_tcp(buf, l4);
    if (!tcp) return std::nullopt;
    t.src_port = tcp->src_port;
    t.dst_port = tcp->dst_port;
  } else if (ip->protocol == net::kIpProtoUdp) {
    const auto udp = net::parse_udp(buf, l4);
    if (!udp) return std::nullopt;
    t.src_port = udp->src_port;
    t.dst_port = udp->dst_port;
  } else {
    return std::nullopt;
  }
  return t;
}

/// The partition hash by definition: parse the Ethernet header and the
/// five-tuple with the net:: parsers, then mix. partition_of must agree
/// with it on every input — partition membership is report semantics.
std::size_t reference_partition_of(const net::Packet& packet,
                                   std::size_t partitions) {
  if (partitions <= 1) return 0;
  std::uint64_t h = 0;
  if (const auto eth = net::parse_ethernet(packet.bytes())) {
    h = net::mix64(eth->src.to_u64() * 0x9E3779B97F4A7C15ULL ^
                   eth->dst.to_u64());
  }
  if (const auto tuple = parsed_five_tuple(packet)) {
    h = net::mix64(h ^ tuple->key());
  }
  return static_cast<std::size_t>(h % partitions);
}

void expect_oracle_partition(const net::Packet& p) {
  for (std::size_t parts = 1; parts <= 16; ++parts) {
    ASSERT_EQ(partition_of(p, parts), reference_partition_of(p, parts))
        << "partitions=" << parts << " size=" << p.size();
  }
}

void expect_oracle_partitions(const std::vector<net::Packet>& packets) {
  for (const net::Packet& p : packets) expect_oracle_partition(p);
}

net::Packet with_bytes(const net::Packet& p, std::vector<std::uint8_t> bytes) {
  return net::Packet(std::move(bytes), p.timestamp_ns(), p.in_port());
}

std::vector<std::uint8_t> bytes_of(const net::Packet& p) {
  return {p.bytes().begin(), p.bytes().end()};
}

TEST(PartitionOracle, EveryMonitorWorkload) {
  for (const char* kind : {"uniform", "churn", "zipf", "bridge", "attack",
                           "heartbeat", "longrun", "drift"}) {
    SCOPED_TRACE(kind);
    const auto packets = core::monitor_workload("nat", kind, 600);
    ASSERT_FALSE(packets.empty());
    expect_oracle_partitions(packets);
  }
}

TEST(PartitionOracle, MutatedTraces) {
  std::vector<net::Packet> trace = core::monitor_workload("nat", "zipf", 200);
  ASSERT_TRUE(net::snap_to_boundary(trace, 10, 1'000'000));
  ASSERT_TRUE(net::stretch_gap(trace, 20, 5'000'000'000ULL));
  ASSERT_TRUE(net::swap_contents(trace, 3, 150));
  ASSERT_TRUE(net::rotate_window(trace, 40, 30));
  ASSERT_TRUE(net::duplicate_at(trace, 77));
  expect_oracle_partitions(trace);
}

TEST(PartitionOracle, MalformedAndTruncatedFrames) {
  const net::MacAddress a = net::MacAddress::from_u64(0x0200000000a1);
  const net::MacAddress b = net::MacAddress::from_u64(0x0200000000b2);
  const net::Ipv4Address src{0x0a000001}, dst{0xc0a80002};
  std::vector<net::Packet> bases = {
      net::PacketBuilder().eth(a, b).ipv4(src, dst, net::kIpProtoUdp)
          .udp(1234, 53).build(),
      net::PacketBuilder().eth(a, b).ipv4(src, dst, net::kIpProtoTcp)
          .tcp(40000, 80).build(),
      net::PacketBuilder().eth(a, b).ipv4(src, dst, net::kIpProtoIcmp)
          .build(),
      net::PacketBuilder().eth(a, b).ipv4(src, dst, net::kIpProtoUdp)
          .ip_nop_options(3).ip_timestamp_option(2).udp(7, 9).build(),
      net::PacketBuilder().eth(a, b).ipv4(src, dst, net::kIpProtoTcp)
          .ip_nop_options(40).tcp(1, 2).build(),
      net::PacketBuilder().eth(a, b, net::kEtherTypeArp).build(),
      net::PacketBuilder().eth(a, b, net::kEtherTypeVlan).build(),
  };
  std::vector<net::Packet> inputs;
  for (const net::Packet& base : bases) {
    const std::vector<std::uint8_t> full = bytes_of(base);
    // Truncation at every byte, down to the empty frame.
    for (std::size_t len = 0; len <= full.size(); ++len) {
      inputs.push_back(with_bytes(base, {full.begin(), full.begin() + len}));
    }
    if (full.size() < 35) continue;
    // Every version/IHL nibble pair: IHL < 5, IHL past the end, version != 4.
    for (int vihl = 0; vihl < 256; ++vihl) {
      std::vector<std::uint8_t> v = full;
      v[14] = static_cast<std::uint8_t>(vihl);
      inputs.push_back(with_bytes(base, v));
      // Also cut just before and after where that IHL's L4 header ends.
      const std::size_t l4 = 14 + std::size_t(vihl & 0x0f) * 4;
      for (const std::size_t end : {l4 + 7, l4 + 8, l4 + 19, l4 + 20}) {
        if (end <= v.size()) {
          inputs.push_back(with_bytes(base, {v.begin(), v.begin() + end}));
        }
      }
    }
    // Every protocol number (ICMP, TCP, UDP and the rest).
    for (int proto = 0; proto < 256; ++proto) {
      std::vector<std::uint8_t> v = full;
      v[23] = static_cast<std::uint8_t>(proto);
      inputs.push_back(with_bytes(base, v));
    }
    // Ethertypes around IPv4.
    for (const std::uint16_t et : {0x0800, 0x0801, 0x0008, 0x86dd, 0x8100}) {
      std::vector<std::uint8_t> v = full;
      v[12] = static_cast<std::uint8_t>(et >> 8);
      v[13] = static_cast<std::uint8_t>(et & 0xff);
      inputs.push_back(with_bytes(base, v));
    }
  }
  // Random header corruption and truncation.
  support::Rng rng(15);
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::uint8_t> v = bytes_of(bases[rng.below(bases.size())]);
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      v[rng.below(std::min<std::size_t>(v.size(), 64))] =
          static_cast<std::uint8_t>(rng.next());
    }
    v.resize(rng.below(v.size() + 1));
    inputs.push_back(net::Packet(std::move(v), 0));
  }
  expect_oracle_partitions(inputs);
}

}  // namespace
}  // namespace bolt::monitor
