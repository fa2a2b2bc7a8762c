// Differential test of the monitor's run fold (monitor/accum.h).
//
// The chunk driver hands ClassAccum::add_rows its batch columns, which
// go to add_run as runs of rows that repeat (measured, predicted), and
// MetricAccum counts a run with one step. This file folds random row
// streams both ways: through add_rows, or add_run over runs also cut at
// random points, in interleaved partitions merged in random order; and
// through a naive per-row fold
// written here from the definitions (util_pm, util_bucket, util_cmp and
// a sorted, capped offender insert). Every field must agree: counters,
// histograms, worsts, the sketches' serialize() and the offender lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "monitor/accum.h"
#include "support/random.h"

namespace bolt::monitor {
namespace {

using perf::kAllMetrics;
using perf::Metric;
using perf::metric_index;

struct Row {
  std::uint64_t packet = 0;
  std::array<std::uint64_t, 3> measured{};
  std::array<std::int64_t, 3> predicted{};
};

/// The per-row fold, one packet at a time, straight from the definitions.
struct RefClass {
  struct Metric1 {
    std::uint64_t violations = 0;
    bool has_worst = false;
    std::uint64_t worst_packet = 0;
    std::int64_t worst_predicted = 0;
    std::uint64_t worst_measured = 0;
    std::array<std::uint64_t, kUtilizationBuckets> histogram{};
    perf::QuantileSketch headroom_pm;
  };
  std::uint64_t packets = 0;
  std::array<Metric1, 3> metrics;
  perf::QuantileSketch violation_margin_pm;
  std::vector<Offender> offenders;

  void add_row(const Row& row, bool check_cycles, std::size_t cap) {
    ++packets;
    Offender worst;
    bool has_offender = false;
    for (const Metric m : kAllMetrics) {
      if (m == Metric::kCycles && !check_cycles) continue;
      const int mi = metric_index(m);
      const std::uint64_t value = row.measured[mi];
      const std::int64_t bound = row.predicted[mi];
      Metric1& acc = metrics[mi];
      const bool violated = static_cast<std::int64_t>(value) > bound;
      if (violated) ++acc.violations;
      ++acc.histogram[util_bucket(value, bound)];
      acc.headroom_pm.add(util_pm(value, bound));
      const int cmp =
          util_cmp(value, bound, acc.worst_measured, acc.worst_predicted);
      if (!acc.has_worst || cmp > 0 ||
          (cmp == 0 && row.packet < acc.worst_packet)) {
        acc.has_worst = true;
        acc.worst_packet = row.packet;
        acc.worst_predicted = bound;
        acc.worst_measured = value;
      }
      if (violated) {
        violation_margin_pm.add(
            bound > 0 ? (value - static_cast<std::uint64_t>(bound)) * 1000 /
                            static_cast<std::uint64_t>(bound)
                      : kDegenerateUtilPm);
      }
      if (!has_offender ||
          util_cmp(value, bound, worst.measured, worst.predicted) > 0) {
        has_offender = true;
        worst = Offender{row.packet, m, bound, value};
      }
    }
    if (!has_offender || cap == 0) return;
    const auto pos = std::lower_bound(offenders.begin(), offenders.end(),
                                      worst, offender_before);
    if (pos == offenders.end() && offenders.size() >= cap) return;
    offenders.insert(pos, worst);
    if (offenders.size() > cap) offenders.pop_back();
  }
};

std::string describe(const std::vector<Offender>& offenders) {
  std::string out;
  for (const Offender& o : offenders) {
    out += std::to_string(o.packet_index) + ":" +
           std::to_string(metric_index(o.metric)) + ":" +
           std::to_string(o.predicted) + ":" + std::to_string(o.measured) +
           " ";
  }
  return out;
}

void expect_same(const ClassAccum& got, const RefClass& want) {
  EXPECT_EQ(got.packets, want.packets);
  for (std::size_t m = 0; m < 3; ++m) {
    SCOPED_TRACE("metric " + std::to_string(m));
    const MetricAccum& g = got.metrics[m];
    const RefClass::Metric1& w = want.metrics[m];
    EXPECT_EQ(g.violations, w.violations);
    EXPECT_EQ(g.has_worst, w.has_worst);
    EXPECT_EQ(g.worst_packet, w.worst_packet);
    EXPECT_EQ(g.worst_predicted, w.worst_predicted);
    EXPECT_EQ(g.worst_measured, w.worst_measured);
    EXPECT_EQ(g.histogram, w.histogram);
    EXPECT_EQ(g.headroom_pm.serialize(), w.headroom_pm.serialize());
  }
  EXPECT_EQ(got.violation_margin_pm.serialize(),
            want.violation_margin_pm.serialize());
  EXPECT_EQ(describe(got.offenders), describe(want.offenders));
}

/// A (measured, predicted) pair from a small pool, so rows repeat and
/// utilizations tie across distinct pairs (2/4 = 3/6), plus violations,
/// degenerate bounds, zero work and values past the `* 1000` wrap.
std::pair<std::uint64_t, std::int64_t> random_pair(support::Rng& rng) {
  constexpr std::uint64_t kWrap = ~0ull / 1000;
  switch (rng.below(12)) {
    case 0: return {0, static_cast<std::int64_t>(rng.below(5))};  // m == 0
    case 1: return {rng.below(4), -static_cast<std::int64_t>(rng.below(3))};
    case 2: return {1 + rng.below(3), 0};  // degenerate bound
    case 3: {  // near and past the wrap, finite bound
      const std::uint64_t m = kWrap - 2 + rng.below(5);
      return {m, static_cast<std::int64_t>(m - 1 + rng.below(3))};
    }
    case 4: {  // past the wrap, violated by a wide margin
      const std::uint64_t m = (1ull << 62) + rng.below(3);
      return {m, static_cast<std::int64_t>(1000 + rng.below(3))};
    }
    case 5: return {(1ull << 63) + rng.below(2), 1000};  // negative as int64
    case 6: {  // a utilization tie: k/2k
      const std::uint64_t k = 1 + rng.below(4);
      return {k, static_cast<std::int64_t>(2 * k)};
    }
    default: {
      const std::int64_t p = 30 + static_cast<std::int64_t>(rng.below(8));
      return {20 + rng.below(20), p};  // some over the bound
    }
  }
}

/// A stream whose rows repeat the previous row with probability `repeat`;
/// a few others repeat it but for one measured value or one bound.
std::vector<Row> random_stream(support::Rng& rng, std::size_t n,
                               double repeat) {
  std::vector<Row> rows;
  std::uint64_t packet = rng.below(3);
  for (std::size_t i = 0; i < n; ++i) {
    Row row;
    if (!rows.empty() && rng.chance(repeat)) {
      row = rows.back();
    } else if (!rows.empty() && rng.chance(0.3)) {
      row = rows.back();
      const std::size_t m = rng.below(3);
      if (rng.chance(0.5)) {
        row.measured[m] += 1;
      } else {
        row.predicted[m] -= 1;
      }
    } else {
      for (std::size_t m = 0; m < 3; ++m) {
        std::tie(row.measured[m], row.predicted[m]) = random_pair(rng);
      }
    }
    row.packet = packet;
    packet += 1 + (rng.chance(0.2) ? rng.below(5) : 0);
    rows.push_back(row);
  }
  return rows;
}

/// Folds `rows` (ascending packets) as the chunk driver does: columns
/// through add_rows.
void fold_columns(ClassAccum& acc, const std::vector<Row>& rows,
                  bool check_cycles, std::size_t cap) {
  std::vector<std::uint64_t> packets;
  std::array<std::vector<std::uint64_t>, 3> measured;
  std::array<std::vector<std::int64_t>, 3> predicted;
  for (const Row& row : rows) {
    packets.push_back(row.packet);
    for (std::size_t m = 0; m < 3; ++m) {
      measured[m].push_back(row.measured[m]);
      predicted[m].push_back(row.predicted[m]);
    }
  }
  acc.add_rows(packets,
               {measured[0].data(), measured[1].data(), measured[2].data()},
               {predicted[0].data(), predicted[1].data(), predicted[2].data()},
               check_cycles, cap);
}

/// Folds `rows` through add_run, in runs of equal rows that are also cut
/// at random points (a run need not be maximal).
void fold_cut_runs(ClassAccum& acc, const std::vector<Row>& rows,
                   bool check_cycles, std::size_t cap, support::Rng& rng) {
  std::vector<std::uint64_t> packets;
  for (std::size_t r = 0; r < rows.size();) {
    std::size_t end = r + 1;
    while (end < rows.size() && rows[end].measured == rows[r].measured &&
           rows[end].predicted == rows[r].predicted && !rng.chance(0.1)) {
      ++end;
    }
    packets.clear();
    for (std::size_t i = r; i < end; ++i) packets.push_back(rows[i].packet);
    acc.add_run(packets, rows[r].measured, rows[r].predicted, check_cycles,
                cap);
    r = end;
  }
}

TEST(RunFold, MatchesThePerRowFold) {
  support::Rng rng(2027);
  int cases = 0;
  for (const std::size_t cap : {0, 1, 4}) {
    for (const bool check_cycles : {true, false}) {
      for (const double repeat : {0.0, 0.7, 0.98, 1.0}) {
        for (int trial = 0; trial < 8; ++trial, ++cases) {
          SCOPED_TRACE("cap=" + std::to_string(cap) +
                       " cycles=" + std::to_string(check_cycles) +
                       " repeat=" + std::to_string(repeat) +
                       " trial=" + std::to_string(trial));
          const std::vector<Row> rows =
              random_stream(rng, 1 + rng.below(400), repeat);
          RefClass want;
          for (const Row& row : rows) want.add_row(row, check_cycles, cap);

          // One accumulator, the driver's runs.
          ClassAccum whole;
          fold_columns(whole, rows, check_cycles, cap);
          expect_same(whole, want);

          // Interleaved partitions (each keeps its packets ascending), runs
          // cut at random too, merged in a random order.
          const std::size_t parts = 1 + rng.below(4);
          std::vector<std::vector<Row>> split(parts);
          for (const Row& row : rows) split[rng.below(parts)].push_back(row);
          std::vector<ClassAccum> accums(parts);
          for (std::size_t p = 0; p < parts; ++p) {
            if (rng.chance(0.5)) {
              fold_columns(accums[p], split[p], check_cycles, cap);
            } else {
              fold_cut_runs(accums[p], split[p], check_cycles, cap, rng);
            }
          }
          for (std::size_t i = parts; i > 1; --i) {
            std::swap(accums[i - 1], accums[rng.below(i)]);
          }
          ClassAccum merged;
          for (const ClassAccum& a : accums) merged.merge(a, cap);
          expect_same(merged, want);
        }
      }
    }
  }
  EXPECT_EQ(cases, 3 * 2 * 4 * 8);
}

TEST(RunFold, ALongTiedRunFillsTheOffenderListInIndexOrder) {
  // 64 equal rows: the first is the worst, and the run fills every free
  // offender slot with its lowest packets, as 64 single rows would.
  std::vector<Row> rows(64);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].packet = 18180 + i;
    rows[i].measured = {400, 40, 3000};
    rows[i].predicted = {363, 37, 3502};
  }
  ClassAccum acc;
  fold_columns(acc, rows, true, 4);
  RefClass want;
  for (const Row& row : rows) want.add_row(row, true, 4);
  expect_same(acc, want);
  ASSERT_EQ(acc.offenders.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(acc.offenders[i].packet_index, 18180 + i);
  }
  EXPECT_EQ(acc.metrics[0].worst_packet, 18180u);
  EXPECT_EQ(acc.metrics[0].violations, 64u);
  EXPECT_EQ(acc.violation_margin_pm.count(), 128u);
}

TEST(RunFold, AnEmptyRunChangesNothing) {
  ClassAccum acc;
  acc.add_run({}, {1, 1, 1}, {0, 0, 0}, true, 4);
  EXPECT_EQ(acc.packets, 0u);
  EXPECT_FALSE(acc.metrics[0].has_worst);
  EXPECT_TRUE(acc.offenders.empty());
}

}  // namespace
}  // namespace bolt::monitor
