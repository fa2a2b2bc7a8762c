// The hunter's own contract (ISSUE 9 acceptance criteria):
//  * a deliberately seeded measurement fault (the epoch-straddle off-by-one
//    behind MonitorOptions::inject_straddle_bug) is FOUND — the hunt ends
//    with a violating trace — and ddmin shrinks it to a tiny witness
//    (<= 32 packets, 1-minimal);
//  * with the fault disabled the SAME seed and budget find nothing: a
//    clean contract yields zero violations;
//  * both directions are byte-deterministic per seed: hunt twice, get the
//    identical trace, report, and history;
//  * the minimiser keeps its promises independently of its own flags —
//    1-minimality is re-verified here by dropping each witness packet and
//    watching the violation vanish;
//  * epoch-boundary semantics (ISSUE 9 satellite): a packet landing at
//    exactly k*epoch_ns belongs to the NEW epoch on both sides of the
//    loop — shadow and monitor agree (zero mismatches, zero violations on
//    a clean replay of the straddling witness).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/hunter.h"
#include "adversary/minimize.h"
#include "adversary/report.h"
#include "core/bolt.h"
#include "core/targets.h"
#include "monitor/monitor.h"
#include "net/mutate.h"
#include "net/packet.h"
#include "net/pcap.h"

namespace bolt::adversary {
namespace {

HunterOptions seeded_options(bool inject_bug, std::uint64_t seed = 7) {
  HunterOptions opts;
  opts.seed = seed;
  opts.adversary.seed = seed;
  opts.monitor.inject_straddle_bug = inject_bug;
  return opts;
}

struct Find {
  perf::PcvRegistry reg;
  perf::Contract contract{""};
  HunterResult hunt;
  MinimizeResult minimized;
};

/// One full seeded pipeline: generate the nat contract, hunt with the
/// injected straddle fault, minimise the find. Fresh state every call so
/// determinism tests compare truly independent runs.
Find run_seeded_find(std::uint64_t seed = 7) {
  Find f;
  core::NfTarget target;
  EXPECT_TRUE(core::make_named_target("nat", f.reg, target));
  core::ContractGenerator gen(f.reg);
  const core::GenerationResult generated = gen.generate(target.analysis());
  f.contract = generated.contract;
  const HunterOptions opts = seeded_options(true, seed);
  f.hunt = hunt("nat", f.contract, f.reg, opts, &generated.path_reports);
  if (f.hunt.violation_found || f.hunt.divergence_found) {
    MinimizeOptions mopts;
    mopts.adversary = opts.adversary;
    mopts.monitor = opts.monitor;
    f.minimized =
        minimize("nat", f.contract, f.reg, f.hunt.best.packets, mopts);
  }
  return f;
}

/// Shared find for the read-only assertions (the pipeline is deterministic,
/// so sharing one run loses nothing).
const Find& shared_find() {
  static const Find* f = new Find(run_seeded_find());
  return *f;
}

TEST(HunterSeeded, FindsTheSeededStraddleBug) {
  const Find& f = shared_find();
  std::string history;
  for (const std::string& line : f.hunt.history) history += "\n  " + line;
  EXPECT_TRUE(f.hunt.violation_found) << "history:" << history;
  EXPECT_FALSE(f.hunt.divergence_found);
  EXPECT_GT(f.hunt.fitness.violations, 0u);
  EXPECT_GT(f.hunt.report.monitor.violations, 0u);
  // The synthesised seed trace itself never straddles a boundary — the
  // find must come from the mutation search, not generation 0.
  EXPECT_GE(f.hunt.violation_generation, 1u);
}

TEST(HunterSeeded, MinimizedWitnessIsSmallAndStillViolating) {
  const Find& f = shared_find();
  ASSERT_TRUE(f.hunt.violation_found);
  EXPECT_TRUE(f.minimized.reproduced);
  EXPECT_TRUE(f.minimized.one_minimal);
  EXPECT_GT(f.minimized.report.monitor.violations, 0u);
  EXPECT_LE(f.minimized.minimized_packets, 32u)
      << "ddmin left " << f.minimized.minimized_packets << " of "
      << f.minimized.original_packets << " packets";
  EXPECT_LT(f.minimized.minimized_packets, f.minimized.original_packets);
  // The witness round-trips: plans cover every packet.
  EXPECT_EQ(f.minimized.trace.plans.size(),
            f.minimized.trace.packets.size());
}

TEST(HunterSeeded, SeedPureCountsArePinned) {
  // Every count below is a pure function of the seed, so a change means
  // the search or the minimiser changed behaviour, not the host.
  const Find& f = shared_find();
  ASSERT_TRUE(f.hunt.violation_found);
  EXPECT_EQ(f.hunt.replays, 5u);
  EXPECT_EQ(f.hunt.violation_generation, 1u);
  EXPECT_EQ(f.minimized.original_packets, 4172u);
  EXPECT_EQ(f.minimized.replays, 24u);
  EXPECT_EQ(f.minimized.minimized_packets, 2u);
}

TEST(HunterSeeded, WitnessStraddlesAnExactEpochBoundary) {
  // Epoch-boundary semantics regression. The fault only fires when a
  // packet's timestamp lands on k*epoch_ns exactly, so the minimised
  // witness must contain such a packet; and on a CLEAN monitor the same
  // straddling trace must replay with full shadow/monitor agreement —
  // both sides place the boundary packet in the NEW epoch, after the
  // sweep.
  const Find& f = shared_find();
  ASSERT_TRUE(f.minimized.reproduced);
  const std::uint64_t epoch_ns = f.minimized.trace.epoch_ns;
  ASSERT_GT(epoch_ns, 0u);
  bool straddles = false;
  for (const net::Packet& p : f.minimized.trace.packets) {
    if (p.timestamp_ns() > 0 && p.timestamp_ns() % epoch_ns == 0) {
      straddles = true;
    }
  }
  EXPECT_TRUE(straddles)
      << "minimised witness carries no exact-boundary packet";

  monitor::MonitorOptions clean;  // inject_straddle_bug = false
  const GapReport report =
      replay(f.minimized.trace, f.contract, f.reg, clean);
  EXPECT_EQ(report.mismatched, 0u);
  EXPECT_EQ(report.monitor.violations, 0u)
      << "clean monitor disagrees with the shadow on boundary membership";
}

TEST(HunterSeeded, HuntAndMinimizeAreByteDeterministicPerSeed) {
  const Find a = run_seeded_find();
  const Find b = run_seeded_find();
  ASSERT_TRUE(a.hunt.violation_found);
  ASSERT_TRUE(b.hunt.violation_found);
  EXPECT_EQ(a.hunt.violation_generation, b.hunt.violation_generation);
  EXPECT_EQ(a.hunt.replays, b.hunt.replays);
  EXPECT_EQ(a.hunt.history, b.hunt.history);
  EXPECT_EQ(net::serialize_pcap(a.hunt.best.packets),
            net::serialize_pcap(b.hunt.best.packets));
  EXPECT_EQ(net::serialize_pcap(a.minimized.trace.packets),
            net::serialize_pcap(b.minimized.trace.packets));
  EXPECT_EQ(a.minimized.replays, b.minimized.replays);
  EXPECT_EQ(gap_report_to_json(a.minimized.report),
            gap_report_to_json(b.minimized.report));
}

TEST(HunterClean, SameSeedAndBudgetFindNothingOnACleanMonitor) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator gen(reg);
  const core::GenerationResult generated = gen.generate(target.analysis());
  const HunterOptions opts = seeded_options(false);
  const HunterResult a =
      hunt("nat", generated.contract, reg, opts, &generated.path_reports);
  EXPECT_FALSE(a.violation_found) << gap_report_to_json(a.report);
  EXPECT_FALSE(a.divergence_found);
  EXPECT_EQ(a.fitness.violations, 0u);
  // The full budget was spent probing, not cut short.
  EXPECT_EQ(a.replays, opts.generations * opts.population + 1);
  // And the clean hunt is just as deterministic as the seeded one.
  const HunterResult b =
      hunt("nat", generated.contract, reg, opts, &generated.path_reports);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(net::serialize_pcap(a.best.packets),
            net::serialize_pcap(b.best.packets));
  EXPECT_EQ(gap_report_to_json(a.report), gap_report_to_json(b.report));
}

TEST(Minimizer, OneMinimalityHoldsUnderIndependentReverification) {
  // Do not trust MinimizeResult::one_minimal — re-derive it: dropping any
  // single packet of the witness must lose the violation under the same
  // oracle (bug included).
  const Find& f = shared_find();
  ASSERT_TRUE(f.minimized.one_minimal);
  const std::vector<net::Packet>& witness = f.minimized.trace.packets;
  ASSERT_GE(witness.size(), 2u);
  MinimizeOptions mopts;
  mopts.adversary = seeded_options(true).adversary;
  mopts.monitor = seeded_options(true).monitor;
  for (std::size_t drop = 0; drop < witness.size(); ++drop) {
    std::vector<net::Packet> candidate;
    for (std::size_t i = 0; i < witness.size(); ++i) {
      if (i != drop) candidate.push_back(witness[i]);
    }
    const AdversarialTrace trace =
        plan_packets("nat", f.contract, f.reg, candidate, mopts.adversary);
    const GapReport report =
        replay(trace, f.contract, f.reg, mopts.monitor);
    EXPECT_EQ(report.monitor.violations, 0u)
        << "witness still violates without packet " << drop
        << " — not 1-minimal";
    EXPECT_EQ(report.mismatched, 0u);
  }
}

TEST(Minimizer, NonViolatingInputIsReportedNotShrunk) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator gen(reg);
  const core::GenerationResult generated = gen.generate(target.analysis());
  AdversaryOptions aopts;
  aopts.seed = 7;
  const AdversarialTrace seed = adversarial_traffic(
      "nat", generated.contract, reg, aopts, &generated.path_reports);
  MinimizeOptions mopts;
  mopts.adversary = aopts;  // clean monitor: the seed trace never violates
  const MinimizeResult m =
      minimize("nat", generated.contract, reg, seed.packets, mopts);
  EXPECT_FALSE(m.reproduced);
  EXPECT_EQ(m.minimized_packets, seed.packets.size());
  EXPECT_EQ(m.replays, 1u);  // one reproduction attempt, nothing more
  EXPECT_EQ(m.report.monitor.violations, 0u);
}

TEST(Minimizer, ReplayCapYieldsACoarserStillViolatingWitness) {
  const Find& f = shared_find();
  ASSERT_TRUE(f.hunt.violation_found);
  MinimizeOptions mopts;
  mopts.adversary = seeded_options(true).adversary;
  mopts.monitor = seeded_options(true).monitor;
  mopts.max_replays = 3;  // reproduce + barely one bisection step
  const MinimizeResult m =
      minimize("nat", f.contract, f.reg, f.hunt.best.packets, mopts);
  EXPECT_TRUE(m.reproduced);
  // Not enough budget to verify 1-minimality — the claim must be withheld,
  // never vacuously made.
  EXPECT_FALSE(m.one_minimal);
  EXPECT_LE(m.replays, 3u);
  // But the truncated result still reproduces the violation.
  EXPECT_GT(m.report.monitor.violations, 0u);
  EXPECT_LE(m.minimized_packets, m.original_packets);
}

TEST(MutateMoves, PreserveGloballyMonotonicTimestamps) {
  perf::PcvRegistry reg;
  core::NfTarget target;
  ASSERT_TRUE(core::make_named_target("nat", reg, target));
  core::ContractGenerator gen(reg);
  const core::GenerationResult generated = gen.generate(target.analysis());
  AdversaryOptions aopts;
  const AdversarialTrace seed = adversarial_traffic(
      "nat", generated.contract, reg, aopts, &generated.path_reports);
  std::vector<net::Packet> pkts = seed.packets;
  const std::size_t n = pkts.size();
  ASSERT_GE(n, 16u);
  // One of each move, at positions that exercise the clamping paths.
  EXPECT_TRUE(net::snap_to_boundary(pkts, n / 2, aopts.epoch_ns));
  EXPECT_TRUE(net::stretch_gap(pkts, n / 3, aopts.epoch_ns / 2));
  EXPECT_TRUE(net::swap_contents(pkts, 1, n - 2));
  EXPECT_TRUE(net::rotate_window(pkts, n / 4, 5));
  EXPECT_TRUE(net::duplicate_at(pkts, n / 5));
  for (std::size_t i = 1; i < pkts.size(); ++i) {
    ASSERT_LE(pkts[i - 1].timestamp_ns(), pkts[i].timestamp_ns())
        << "timestamps regress at packet " << i;
  }
}

TEST(MutateMoves, InvalidArgumentsAreRejectedNoOps) {
  std::vector<net::Packet> empty;
  EXPECT_FALSE(net::snap_to_boundary(empty, 0, 1000));
  EXPECT_FALSE(net::stretch_gap(empty, 0, 1));
  EXPECT_FALSE(net::duplicate_at(empty, 0));

  std::vector<net::Packet> one(1);
  one[0].set_timestamp_ns(5);
  EXPECT_FALSE(net::snap_to_boundary(one, 1, 1000));  // index out of range
  EXPECT_FALSE(net::snap_to_boundary(one, 0, 0));     // no epoch clock
  EXPECT_FALSE(net::swap_contents(one, 0, 0));        // degenerate swap
  EXPECT_FALSE(net::rotate_window(one, 0, 2));        // window exceeds size
  EXPECT_EQ(one[0].timestamp_ns(), 5u);
}

}  // namespace
}  // namespace bolt::adversary
