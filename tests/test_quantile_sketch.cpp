// Property tests for perf::QuantileSketch — the determinism and accuracy
// guarantees the monitor's online distribution reporting leans on:
//
//  * Accuracy: for any stream and any q, the estimate is conservative
//    (never below the exact nearest-rank quantile) and within one
//    1/2^kSubBits relative slice above it. Exercised on uniform, Zipf,
//    and adversarial (bucket-boundary, all-equal, bimodal) streams.
//  * Rank consistency: the estimate's bucket straddles the target rank.
//  * Merge-order independence: the sketch of a multiset is identical —
//    byte-for-byte through serialize() — no matter how the stream is
//    split into partitions or in which order the pieces are merged. This
//    is what makes partition-merged monitor reports deterministic.
//  * A counted add(v, n) is n single adds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "perf/quantile_sketch.h"
#include "support/random.h"

namespace bolt::perf {
namespace {

constexpr double kQuantiles[] = {0.0, 0.001, 0.01, 0.1, 0.5,
                                 0.9, 0.99,  0.999, 1.0};

std::uint64_t exact_nearest_rank(std::vector<std::uint64_t> sorted, double q) {
  std::uint64_t target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (target == 0) target = 1;
  if (target > sorted.size()) target = sorted.size();
  return sorted[target - 1];
}

void check_accuracy(const std::vector<std::uint64_t>& values) {
  QuantileSketch sketch;
  for (const std::uint64_t v : values) sketch.add(v);
  ASSERT_EQ(sketch.count(), values.size());

  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sketch.min(), sorted.front());
  EXPECT_EQ(sketch.max(), sorted.back());

  for (const double q : kQuantiles) {
    const std::uint64_t exact = exact_nearest_rank(sorted, q);
    const std::uint64_t est = sketch.quantile(q);
    // Conservative: never understates the quantile...
    EXPECT_GE(est, exact) << "q=" << q;
    // ...and overstates by at most one relative bucket slice.
    EXPECT_LE(est, exact + (exact >> QuantileSketch::kSubBits) + 1)
        << "q=" << q << " exact=" << exact;
    // Rank consistency: enough recorded values fall at or below the
    // estimate's bucket to cover the target rank.
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(values.size())));
    if (target == 0) target = 1;
    EXPECT_GE(sketch.rank_upper_bound(est), target) << "q=" << q;
  }
}

TEST(QuantileSketch, BucketMappingIsConsistent) {
  // Every value lies within its own bucket's [lo, hi] range, buckets are
  // monotone in the value, and the linear region is exact.
  std::uint64_t probes[] = {0,    1,    2,     63,        64,   65,
                            127,  128,  129,   1000,      4096, 65535,
                            1u << 20,   (1u << 20) + 17,  ~0ull >> 1, ~0ull};
  std::uint32_t last_bucket = 0;
  for (const std::uint64_t v : probes) {
    const std::uint32_t b = QuantileSketch::bucket_of(v);
    EXPECT_LE(QuantileSketch::bucket_lo(b), v) << v;
    EXPECT_GE(QuantileSketch::bucket_hi(b), v) << v;
    EXPECT_GE(b, last_bucket);
    last_bucket = b;
    if (v < (1ull << (QuantileSketch::kSubBits + 1))) {
      EXPECT_EQ(QuantileSketch::bucket_lo(b), v);
      EXPECT_EQ(QuantileSketch::bucket_hi(b), v);
    }
  }
}

TEST(QuantileSketch, EmptyAndSingleton) {
  QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.quantile(0.5), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  s.add(777);
  for (const double q : kQuantiles) {
    const std::uint64_t est = s.quantile(q);
    EXPECT_GE(est, 777u);
    EXPECT_LE(est, 777 + (777 >> QuantileSketch::kSubBits) + 1);
  }
  EXPECT_EQ(s.min(), 777u);
  EXPECT_EQ(s.max(), 777u);
}

TEST(QuantileSketch, AccuracyOnUniformStream) {
  support::Rng rng(7);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) values.push_back(rng.below(100000));
  check_accuracy(values);
}

TEST(QuantileSketch, AccuracyOnZipfLikeStream) {
  // Heavy tail: mostly tiny values, a few enormous ones (the violation
  // margin distribution's natural shape).
  support::Rng rng(11);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t r = rng.below(1000) + 1;
    values.push_back(1'000'000 / (r * r));
  }
  check_accuracy(values);
}

TEST(QuantileSketch, AccuracyOnAdversarialStreams) {
  // All-equal (every quantile is the same point).
  check_accuracy(std::vector<std::uint64_t>(5000, 42));
  check_accuracy(std::vector<std::uint64_t>(5000, 1023));  // near boundary

  // Exact bucket boundaries: powers of two and their neighbours.
  std::vector<std::uint64_t> boundaries;
  for (unsigned e = 0; e < 40; ++e) {
    boundaries.push_back(1ull << e);
    if ((1ull << e) > 0) boundaries.push_back((1ull << e) - 1);
    boundaries.push_back((1ull << e) + 1);
  }
  for (int rep = 0; rep < 30; ++rep) {
    check_accuracy(boundaries);
    boundaries.insert(boundaries.end(), boundaries.begin(),
                      boundaries.begin() + 10);
  }

  // Bimodal with a huge gap (rank walks must not interpolate across it).
  std::vector<std::uint64_t> bimodal;
  for (int i = 0; i < 3000; ++i) bimodal.push_back(10);
  for (int i = 0; i < 1000; ++i) bimodal.push_back(1'000'000'000ull);
  check_accuracy(bimodal);
}

TEST(QuantileSketch, MergeOrderIndependence) {
  support::Rng rng(23);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.below(1'000'000));
  }

  // Reference: one sketch fed sequentially.
  QuantileSketch reference;
  for (const std::uint64_t v : values) reference.add(v);

  // Partition the same multiset in several different ways, shuffle the
  // parts, and merge in different orders — including unbalanced trees.
  for (const std::size_t parts : {2u, 5u, 16u, 64u}) {
    std::vector<QuantileSketch> shards(parts);
    for (std::size_t i = 0; i < values.size(); ++i) {
      shards[(i * 2654435761u) % parts].add(values[i]);
    }

    // Left fold, forward order.
    QuantileSketch forward;
    for (const auto& s : shards) forward.merge(s);
    // Left fold, reverse order.
    QuantileSketch reverse;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
      reverse.merge(*it);
    }
    // Pairwise tree merge.
    std::vector<QuantileSketch> tree = shards;
    while (tree.size() > 1) {
      std::vector<QuantileSketch> next;
      for (std::size_t i = 0; i + 1 < tree.size(); i += 2) {
        QuantileSketch merged = tree[i];
        merged.merge(tree[i + 1]);
        next.push_back(std::move(merged));
      }
      if (tree.size() % 2 == 1) next.push_back(tree.back());
      tree = std::move(next);
    }

    EXPECT_EQ(forward.serialize(), reference.serialize()) << parts;
    EXPECT_EQ(reverse.serialize(), reference.serialize()) << parts;
    EXPECT_EQ(tree.front().serialize(), reference.serialize()) << parts;
    EXPECT_TRUE(forward == reference);
    EXPECT_TRUE(reverse == reference);
    EXPECT_TRUE(tree.front() == reference);
  }

  // Merging an empty sketch is the identity, both ways.
  QuantileSketch empty;
  QuantileSketch copy = reference;
  copy.merge(empty);
  EXPECT_TRUE(copy == reference);
  empty.merge(reference);
  EXPECT_TRUE(empty == reference);
}

TEST(QuantileSketch, InsertionOrderIndependence) {
  support::Rng rng(31);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.below(50000));

  QuantileSketch in_order;
  for (const std::uint64_t v : values) in_order.add(v);

  std::vector<std::uint64_t> shuffled = values;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  QuantileSketch reordered;
  for (const std::uint64_t v : shuffled) reordered.add(v);

  EXPECT_EQ(in_order.serialize(), reordered.serialize());
}

TEST(QuantileSketch, CountedAddEqualsRepeatedAdds) {
  // add(v, n) is n calls of add(v), including n = 0 (no value, no min/max
  // change) and values past the exact range and near the top of uint64.
  support::Rng rng(57);
  QuantileSketch counted, repeated;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.below(5000);
    if (rng.chance(0.1)) v = rng.next();
    if (rng.chance(0.05)) v = ~0ull - rng.below(3);
    const std::uint64_t n = rng.below(6);
    counted.add(v, n);
    for (std::uint64_t k = 0; k < n; ++k) repeated.add(v);
    ASSERT_EQ(counted.serialize(), repeated.serialize()) << "step " << i;
    ASSERT_TRUE(counted == repeated);
  }
  QuantileSketch empty;
  empty.add(7, 0);
  EXPECT_TRUE(empty == QuantileSketch{});
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
}

}  // namespace
}  // namespace bolt::perf
