// Golden monitor reports — every measured column pinned byte for byte.
//
// tests/data/report_*.json and tests/data/deltas_*.jsonl are committed
// outputs of `bolt_cli monitor` over small fixed workloads
// (tools/regen_goldens.sh writes them). The reports carry the per-class
// IC, MA and conservative-cycle statistics, so any change to the cycle
// meter, the cache simulation behind it, or the engines' event streams
// that moves a single cycle fails here. One case measures NAT with
// inflated framework costs (`--inflate 50`), so the violation bucket, the
// violation margins and the offender order among violators are pinned
// too. Each golden is rebuilt through MonitorEngine::run at 1 and 4
// threads (threads are execution-only, so both must reproduce the file),
// once over the generated packets and once over a pcap of them read one
// PcapTail window at a time (the `monitor --pcap` ingest path).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/pcap.h"
#include "nf/framework.h"
#include "obs/delta.h"
#include "obs/telemetry.h"

namespace bolt::monitor {
namespace {

struct GoldenCase {
  const char* nf;
  const char* workload;  ///< "" = the target's default
  std::size_t delta_every;
  std::uint64_t inflate_pct;  ///< as `bolt_cli monitor --inflate`
  const char* report_file;
  const char* delta_file;  ///< nullptr = no delta stream pinned
};

// Mirrors tools/regen_goldens.sh.
const GoldenCase kCases[] = {
    {"nat", "zipf", 0, 0, "report_nat.json", nullptr},
    {"router", "drift", 1, 0, "report_router.json", "deltas_router.jsonl"},
    {"lb", "", 0, 0, "report_lb.json", nullptr},
    {"fw+router", "uniform", 0, 0, "report_fw_router.json", nullptr},
    {"nat", "zipf", 1, 50, "report_nat_inflated.json",
     "deltas_nat_inflated.jsonl"},
};
constexpr std::size_t kGoldenPackets = 20'000;

std::string read_golden(const std::string& name) {
  const std::string path = std::string(BOLT_TEST_DATA_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing golden " << path
                        << " (regenerate with tools/regen_goldens.sh)";
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ReportGolden, MonitorReproducesCommittedReports) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.report_file);
    perf::PcvRegistry reg;
    core::NfTarget target;
    ASSERT_TRUE(core::make_named_target(c.nf, reg, target));
    core::ContractGenerator generator(reg);
    const perf::Contract contract =
        generator.generate(target.analysis()).contract;
    const std::vector<net::Packet> packets =
        core::monitor_workload(c.nf, c.workload, kGoldenPackets);
    ASSERT_FALSE(packets.empty());

    const std::string want_report = read_golden(c.report_file);
    const std::string want_deltas =
        c.delta_file != nullptr ? read_golden(c.delta_file) : "";
    ASSERT_FALSE(want_report.empty());

    // The ingest path: the same packets written to a pcap (every golden
    // workload keeps in_port 0, which pcap does not store) and monitored
    // as views into the reader's window, one poll per chunk.
    const std::string path = testing::TempDir() + "bolt_golden_" +
                             std::string(c.report_file) + ".pcap";
    net::write_pcap(path, packets);

    for (const std::size_t threads : {1, 4}) {
      for (const bool from_pcap : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     (from_pcap ? " pcap windows" : " packets"));
        MonitorOptions options;
        options.threads = threads;
        options.delta_every = c.delta_every;
        options.framework =
            nf::framework_inflated(options.framework, c.inflate_pct);
        const MonitorEngine engine(contract, reg, options);
        obs::RunObservations observations;
        const MonitorEngine::TargetFactory factory =
            MonitorEngine::named_factory(c.nf);
        net::PcapTail tail(path, MonitorEngine::kChunksInFlight);
        const MonitorEngine::ChunkSource windows = [&] {
          const auto views = tail.poll_views();
          if (views.empty()) tail.finish();
          return views;
        };
        const MonitorReport report =
            from_pcap ? engine.run(windows, factory, nullptr, &observations)
                      : engine.run(packets, factory, nullptr, &observations);
        EXPECT_EQ(report.packets, packets.size());
        EXPECT_EQ(report_to_json(report) + "\n", want_report);
        if (c.delta_file != nullptr) {
          std::string deltas;
          for (const obs::DeltaWindow& w : observations.deltas) {
            deltas += obs::delta_window_to_json(w) + "\n";
          }
          EXPECT_FALSE(observations.deltas.empty());
          EXPECT_EQ(deltas, want_deltas);
        }
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace bolt::monitor
