#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "support/io.h"
#include "support/random.h"
#include "support/strings.h"

namespace bolt::support {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.range(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values of a small range get hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-1.0));
  EXPECT_TRUE(rng.chance(2.0));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
  EXPECT_EQ(with_commas(591948908371LL), "591,948,908,371");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "/"), "a/b/c");
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_left("x", 3), "  x");
  EXPECT_EQ(pad_right("x", 3), "x  ");
  EXPECT_EQ(pad_left("xyz", 2), "xyz");
}

TEST(Strings, RenderTableAligns) {
  const std::string t =
      render_table({{"h1", "header2"}, {"a", "b"}, {"long-cell", "c"}});
  EXPECT_NE(t.find("h1"), std::string::npos);
  EXPECT_NE(t.find("long-cell"), std::string::npos);
  EXPECT_NE(t.find("---"), std::string::npos);
}

/// The entries of `dir`, without "." and "..".
std::set<std::string> list_dir(const std::string& dir) {
  std::set<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") names.insert(name);
  }
  ::closedir(d);
  return names;
}

TEST(Io, WriteFilePublishesByRenameAndLeavesNoTempFile) {
  std::string dir = ::testing::TempDir() + "/bolt_io_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/report.json";
  const std::set<std::string> only_report = {"report.json"};
  ASSERT_TRUE(write_file(path, "first\n"));
  EXPECT_EQ(list_dir(dir), only_report);

  // A reader that opened the old file keeps reading the old bytes: the
  // new ones arrive as a different file renamed over the name.
  std::FILE* reader = std::fopen(path.c_str(), "rb");
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(write_file(path, "second, longer\n"));
  char buf[32] = {};
  EXPECT_EQ(std::fread(buf, 1, sizeof buf - 1, reader), 6u);
  EXPECT_STREQ(buf, "first\n");
  std::fclose(reader);
  EXPECT_EQ(read_file_or_die(path, "report"), "second, longer\n");
  EXPECT_EQ(list_dir(dir), only_report);

  // A write that fails leaves the published file as it was: here the temp
  // file's name is taken by a directory.
  const std::string tmp =
      dir + "/.report.json.tmp." + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  EXPECT_FALSE(write_file(path, "third\n"));
  EXPECT_EQ(read_file_or_die(path, "report"), "second, longer\n");
  ::rmdir(tmp.c_str());
  EXPECT_EQ(list_dir(dir), only_report);

  // A target in a missing directory fails and creates nothing.
  EXPECT_FALSE(write_file(dir + "/missing/x.json", "x"));
  EXPECT_EQ(list_dir(dir), only_report);
  ::unlink(path.c_str());
  ::rmdir(dir.c_str());
}

TEST(Io, FailedWriteKeepsASymlinkInPlace) {
  // A symlink or a device node is written in place and never removed or
  // renamed over: the link below must survive a failed write, and so must
  // the device behind it. The test never names /dev/full directly.
  struct stat dev;
  if (::stat("/dev/full", &dev) != 0 || !S_ISCHR(dev.st_mode)) {
    GTEST_SKIP() << "/dev/full is not a character device here";
  }
  std::string dir = ::testing::TempDir() + "/bolt_io_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string link = dir + "/full.json";
  ASSERT_EQ(::symlink("/dev/full", link.c_str()), 0);

  EXPECT_FALSE(write_file(link, "{\"x\":1}\n"));

  struct stat st;
  ASSERT_EQ(::lstat(link.c_str(), &st), 0) << "write_file removed the link";
  EXPECT_TRUE(S_ISLNK(st.st_mode));
  ::unlink(link.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace bolt::support
