// CLI help lockdown. The usage text lives in the library
// (core/cli_usage.cpp) precisely so it can be golden-tested here: every
// knob the monitor/adversary grows must land in the help, and the help
// must not drift from what the flag parser actually accepts. Regenerate
// the golden with tools/regen_goldens.sh after an intentional change.
#include "core/cli_usage.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace bolt::core {
namespace {

std::string golden_path() {
  return std::string(BOLT_TEST_DATA_DIR) + "/cli_usage.txt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CliHelp, MatchesGoldenByteForByte) {
  const std::string golden = read_file(golden_path());
  ASSERT_FALSE(golden.empty()) << "missing golden: " << golden_path();
  EXPECT_EQ(std::string(cli_usage_text()), golden)
      << "help text drifted from tests/data/cli_usage.txt — if the change "
         "is intentional, run tools/regen_goldens.sh";
}

TEST(CliHelp, DocumentsEveryMonitorFlag) {
  // The flags cmd_monitor accepts (tools/bolt_cli.cpp). PR 5 shipped the
  // --grouping enum with no CLI flag and no help line; this list is the
  // guard against the next such gap.
  const std::vector<std::string> flags = {
      "--contract", "--workload",  "--packets",  "--partitions",
      "--shards",   "--grouping",  "--threads",  "--batch",
      "--epoch-ns", "--violation-threshold",
      "--inflate",  "--no-cycles", "--pcap",     "--json",
      "--report",   "--delta-every", "--delta-out", "--metrics-out",
      "--metrics-format", "--watch", "--follow", "--spool", "--fleet",
      "--idle-flush-ns", "--idle-exit-ms", "--help",
  };
  const std::string help = cli_usage_text();
  for (const std::string& flag : flags) {
    EXPECT_NE(help.find(flag), std::string::npos)
        << "monitor flag " << flag << " missing from the help text";
  }
}

TEST(CliHelp, DocumentsGroupingPolicies) {
  const std::string help = cli_usage_text();
  EXPECT_NE(help.find("roundrobin"), std::string::npos);
  EXPECT_NE(help.find("lqf"), std::string::npos);
}

TEST(CliHelp, EndsWithNewline) {
  const std::string help = cli_usage_text();
  ASSERT_FALSE(help.empty());
  EXPECT_EQ(help.back(), '\n');
}

}  // namespace
}  // namespace bolt::core
