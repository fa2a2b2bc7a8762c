// Violation hunter — feedback-directed search *past* the contract edge.
//
// The synthesiser (adversary.h) proves bounds are reachable: it lands
// traffic exactly at each class's predicted worst case, so by construction
// it can never find a bound that is *wrong*. The hunter closes that blind
// spot. Starting from the synthesised seed trace it runs a deterministic
// (1+λ) evolution strategy: each generation spawns λ children by mutating
// the incumbent's packet sequence with the net/mutate.h move set —
// epoch-boundary straddles (packets snapped exactly onto sweep edges),
// idle-gap stretches that force extra sweeps, cross-class content
// interleavings, reorder windows, burst duplications — re-plans every
// child through a fresh shadow (plan_packets) and replays it through the
// real monitor.
//
// Fitness is read off the replay gap report, compared lexicographically:
//   1. monitor violations (the prize),
//   2. violation-margin p99 per-mille (deeper breaks are better witnesses),
//   3. worst per-class p99 bound-utilization per-mille,
//   4. the sum of per-class p99 utilizations (aggregate pressure).
// Children that do not beat the incumbent are discarded; ties keep the
// incumbent (first-found wins, so the search is reproducible). The hunt
// stops at the first violating child — minimize.h takes over from there —
// or when the replay budget runs out.
//
// Everything is a pure function of (target, contract, options): same seed,
// byte-identical hunt. A clean contract must yield zero violations at any
// budget; a seeded measurement bug (MonitorOptions::inject_straddle_bug)
// must be found. tests/test_hunter.cpp pins both directions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "adversary/report.h"
#include "monitor/monitor.h"
#include "perf/contract.h"
#include "perf/pcv.h"

namespace bolt::adversary {

/// Lexicographic fitness extracted from a replay gap report.
struct HunterFitness {
  std::uint64_t violations = 0;        ///< monitor violations (primary)
  std::uint64_t margin_p99_pm = 0;     ///< worst class violation-margin p99
  std::uint64_t worst_util_pm = 0;     ///< max class p99 bound-utilization
  std::uint64_t total_util_pm = 0;     ///< sum of class p99 utilizations
};

bool operator<(const HunterFitness& a, const HunterFitness& b);
bool operator==(const HunterFitness& a, const HunterFitness& b);

/// Reads the fitness signal off a gap report (exposed for tests).
HunterFitness fitness_of(const GapReport& report);

struct HunterOptions {
  /// Master seed: drives the synthesised seed trace AND the mutation
  /// stream. The entire hunt is a pure function of it.
  std::uint64_t seed = 1;
  std::size_t generations = 6;  ///< search rounds
  std::size_t population = 4;   ///< mutated children per round (λ)
  /// Mutations applied per child (each drawn from the move set).
  std::size_t mutations_per_child = 3;
  /// Hard cap on monitor replays, seed replay included (0 = derived from
  /// generations * population + 1). The hunt stops when it is spent.
  std::size_t budget = 0;
  /// Seed-trace synthesis + shadow re-planning parameters.
  AdversaryOptions adversary;
  /// Replay knobs. partitions/epoch_ns are overridden per trace (they are
  /// plan semantics); threads and the engine stay free, and the
  /// test-only inject_straddle_bug flag rides here for the seeded hunt.
  monitor::MonitorOptions monitor;
};

struct HunterResult {
  /// A replayed child (or the seed) broke a contract bound.
  bool violation_found = false;
  /// A replay disagreed with its plan's attribution (shadow/monitor model
  /// divergence — always a bug worth a look; fails the CLI gate too).
  bool divergence_found = false;
  std::size_t violation_generation = 0;  ///< 0 = the seed trace itself
  std::uint64_t replays = 0;             ///< monitor replays spent
  HunterFitness fitness;                 ///< of `best`
  /// Best trace found: the first violating trace when violation_found,
  /// otherwise the highest-fitness trace seen. Plans are fresh (re-planned
  /// through the shadow), so the trace round-trips through save_trace.
  AdversarialTrace best;
  GapReport report;  ///< replay report of `best`
  /// One line per generation: "gen 3: fitness 0/0/998/5400 replays 13".
  std::vector<std::string> history;
};

/// Runs the hunt for a registered target against `contract`/`reg` (same
/// artifact conventions as adversarial_traffic; `path_reports` reuses the
/// caller's generator output for seed-trace witnesses).
HunterResult hunt(const std::string& nf_name, const perf::Contract& contract,
                  const perf::PcvRegistry& reg, HunterOptions options = {},
                  const std::vector<core::PathReport>* path_reports = nullptr);

}  // namespace bolt::adversary
