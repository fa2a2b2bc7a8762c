// Golden monitor reports — every measured column pinned byte for byte.
//
// tests/data/report_<nf>.json and tests/data/deltas_router.jsonl are
// committed outputs of `bolt_cli monitor` over small fixed workloads
// (tools/regen_goldens.sh writes them). The reports carry the per-class
// IC, MA and conservative-cycle statistics, so any change to the cycle
// meter, the cache simulation behind it, or the engines' event streams
// that moves a single cycle fails here. Each golden is rebuilt through
// MonitorEngine::run at 1 and 4 threads (threads are execution-only, so
// both must reproduce the file).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "obs/delta.h"
#include "obs/telemetry.h"

namespace bolt::monitor {
namespace {

struct GoldenCase {
  const char* nf;
  const char* workload;  ///< "" = the target's default
  std::size_t delta_every;
  const char* report_file;
  const char* delta_file;  ///< nullptr = no delta stream pinned
};

// Mirrors tools/regen_goldens.sh.
const GoldenCase kCases[] = {
    {"nat", "zipf", 0, "report_nat.json", nullptr},
    {"router", "drift", 1, "report_router.json", "deltas_router.jsonl"},
    {"lb", "", 0, "report_lb.json", nullptr},
    {"fw+router", "uniform", 0, "report_fw_router.json", nullptr},
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
    SCOPED_TRACE(c.nf);
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

    for (const std::size_t threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      MonitorOptions options;
      options.threads = threads;
      options.delta_every = c.delta_every;
      const MonitorEngine engine(contract, reg, options);
      obs::RunObservations observations;
      const MonitorReport report =
          engine.run(packets, MonitorEngine::named_factory(c.nf), nullptr,
                     &observations);
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
}

}  // namespace
}  // namespace bolt::monitor
