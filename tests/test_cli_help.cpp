// CLI help lockdown. The usage text lives in the library
// (core/cli_usage.cpp) precisely so it can be golden-tested here.
// Regenerate the golden with tools/regen_goldens.sh after an intentional
// change. That the help's synopsis lists exactly the flags each subcommand
// accepts is the cli_flags ctest (tests/cli_flags.sh), which drives the
// built bolt_cli.
#include "core/cli_usage.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

TEST(CliHelp, EndsWithNewline) {
  const std::string help = cli_usage_text();
  ASSERT_FALSE(help.empty());
  EXPECT_EQ(help.back(), '\n');
}

}  // namespace
}  // namespace bolt::core
