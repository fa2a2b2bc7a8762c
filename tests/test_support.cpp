#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

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

TEST(Io, FailedWriteKeepsASymlinkInPlace) {
  // A failed write removes a truncated regular file, never what a symlink
  // or a device node is: the link below must survive, and so must the
  // device behind it. The test never names /dev/full directly.
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
