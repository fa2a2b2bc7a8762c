// The parallel pipeline's contract: bit-identical results at any thread
// count. Contracts for the NAT, the bridge, and the firewall->router chain
// are generated at 1, 2, and 8 threads and compared byte-for-byte as JSON,
// also with two generations sharing the pool at once; the executor's
// canonicalized paths are compared structurally; and the shared pool
// itself is unit-tested (full index coverage, exception propagation,
// concurrent and nested callers, cancellation, thread persistence).
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/bolt.h"
#include "core/experiments.h"
#include "core/scenarios.h"
#include "core/targets.h"
#include "nf/firewall.h"
#include "perf/contract_io.h"
#include "support/thread_pool.h"

namespace bolt::core {
namespace {

// ---------------------------------------------------------------- pool --

/// Threads in this process, or 0 where /proc is not mounted.
std::size_t task_count() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_GE(support::resolve_threads(0), 1u);
  EXPECT_EQ(support::resolve_threads(3), 3u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  support::parallel_for(0, hits.size(), 8,
                        [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HonoursBeginOffset) {
  std::atomic<std::size_t> sum{0};
  support::parallel_for(10, 20, 4, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  bool ran = false;
  support::parallel_for(5, 5, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(support::parallel_for(0, 100, 4,
                                     [&](std::size_t i) {
                                       if (i == 42) throw std::runtime_error("boom");
                                     }),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> count{0};
  support::parallel_for(0, 10, 4, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    support::parallel_for(0, 20, 2, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 20);
}

/// Two callers on different threads share the pool at once; each batch
/// keeps its own index counter, so every index of each runs exactly once.
TEST(ThreadPool, ConcurrentCallersEachRunEveryIndexOnce) {
  constexpr std::size_t kN = 2000;
  std::vector<std::atomic<int>> a(kN), b(kN);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t i = 0; i < kN; ++i) a[i].store(0), b[i].store(0);
    std::thread ta([&] {
      support::parallel_for(0, kN, 4, [&](std::size_t i) { a[i].fetch_add(1); });
    });
    std::thread tb([&] {
      support::parallel_for(0, kN, 2, [&](std::size_t i) { b[i].fetch_add(1); });
    });
    ta.join();
    tb.join();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "round " << round << " index " << i;
      ASSERT_EQ(b[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

/// A parallel_for inside a task runs inline on the thread running that
/// task, and completes.
TEST(ThreadPool, NestedCallRunsInline) {
  std::atomic<int> inner{0};
  std::atomic<int> off_thread{0};
  support::parallel_for(0, 8, 4, [&](std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    support::parallel_for(0, 50, 4, [&](std::size_t) {
      inner.fetch_add(1);
      if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 8 * 50);
  EXPECT_EQ(off_thread.load(), 0);
}

/// Width 1 is a plain loop on the calling thread: no pool thread starts.
TEST(ThreadPool, WidthOneRunsOnCallingThread) {
  const std::size_t before = task_count();
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  support::parallel_for(0, 100, 1, [&](std::size_t) {
    if (std::this_thread::get_id() != self) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
  support::TaskGroup group(1, [](std::size_t) {});
  EXPECT_EQ(group.width(), 1u);
  EXPECT_FALSE(group.add_helper());
  group.wait();
  EXPECT_EQ(task_count(), before);
}

/// A throwing batch on one thread never leaks its error into a concurrent
/// caller's batch.
TEST(ThreadPool, ExceptionReachesOnlyItsCaller) {
  for (int round = 0; round < 20; ++round) {
    bool a_threw = false;
    bool b_threw = false;
    std::atomic<int> b_count{0};
    std::thread ta([&] {
      try {
        support::parallel_for(0, 200, 4, [](std::size_t i) {
          if (i % 7 == 3) throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        a_threw = true;
      }
    });
    std::thread tb([&] {
      try {
        support::parallel_for(0, 200, 2, [&](std::size_t) { b_count.fetch_add(1); });
      } catch (...) {
        b_threw = true;
      }
    });
    ta.join();
    tb.join();
    EXPECT_TRUE(a_threw) << "round " << round;
    EXPECT_FALSE(b_threw) << "round " << round;
    EXPECT_EQ(b_count.load(), 200) << "round " << round;
  }
}

/// A helper still queued when its owner closes the group is cancelled: the
/// owner never waits on a pool thread that is busy for another caller.
TEST(ThreadPool, QueuedHelpersAreCancelledNotAwaited) {
  // Wider than any other group in this binary, so its helpers occupy
  // every pool thread.
  constexpr std::size_t kWide = 32;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t started = 0;
  bool release = false;
  support::TaskGroup blocker(kWide, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++started;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  while (blocker.add_helper()) {
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started == kWide - 1; });
  }

  std::atomic<bool> ran{false};
  std::thread other([&] {
    support::TaskGroup group(2, [&](std::size_t) { ran = true; });
    EXPECT_TRUE(group.add_helper());
    group.wait();  // must return although no pool thread is free
  });
  other.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocker.wait();
  EXPECT_FALSE(ran.load());
}

/// Helpers run on persistent threads: every thread that ran part of a
/// batch is still alive once the batch is done.
TEST(ThreadPool, HelperThreadsOutliveTheirBatches) {
  if (task_count() == 0) GTEST_SKIP() << "/proc/self/task is not readable";
  std::mutex mutex;
  std::set<long> tids;
  for (int round = 0; round < 20; ++round) {
    support::parallel_for(0, 16, 4, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(mutex);
        tids.insert(static_cast<long>(::syscall(SYS_gettid)));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    });
  }
  EXPECT_GT(tids.size(), 1u) << "no helper ever ran";
  for (const long tid : tids) {
    EXPECT_TRUE(std::filesystem::exists("/proc/self/task/" + std::to_string(tid)))
        << "thread " << tid << " exited after its batch";
  }
}

/// Generation reuses the pool's threads: repeated generate() calls at
/// width 4 start at most the 3 helpers the first call needs.
TEST(ThreadPool, GenerationReusesPersistentThreads) {
  const std::size_t before = task_count();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is not readable";
  for (int i = 0; i < 20; ++i) {
    perf::PcvRegistry reg;
    NfTarget target;
    ASSERT_TRUE(make_named_target("router", reg, target));
    BoltOptions opts;
    opts.threads = 4;
    (void)ContractGenerator(reg, opts).generate(target.analysis());
  }
  EXPECT_LE(task_count(), before + 3);
}

// ------------------------------------------------------------ executor --

/// Serializes every canonicalized path of a chain exploration, symbol ids
/// included — this must not depend on how many workers explored.
std::string explore_chain_fingerprint(std::size_t threads) {
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  symbex::ExecutorOptions opts;
  opts.threads = threads;
  symbex::Executor executor({&firewall, &router}, {}, opts);
  const std::vector<symbex::PathResult> paths = executor.run();
  EXPECT_GT(paths.size(), 0u);

  auto namer = [&](symbex::SymId id) {
    return executor.symbols().name(id) + "#" + std::to_string(id);
  };
  std::string out;
  for (const symbex::PathResult& p : paths) {
    out += p.class_label();
    out += p.action == symbex::PathAction::kForward ? " ->F" : " ->D";
    for (const auto& c : p.constraints) out += " & " + c->str(namer);
    if (p.out_port != nullptr) out += " port=" + p.out_port->str(namer);
    out += '\n';
  }
  return out;
}

TEST(ParallelExecutor, CanonicalPathsIdenticalAcrossThreadCounts) {
  const std::string t1 = explore_chain_fingerprint(1);
  EXPECT_EQ(t1, explore_chain_fingerprint(2));
  EXPECT_EQ(t1, explore_chain_fingerprint(8));
}

TEST(ParallelExecutor, StatsIdenticalAcrossThreadCounts) {
  const ir::Program firewall = nf::Firewall::program();
  auto stats_at = [&](std::size_t threads) {
    symbex::ExecutorOptions opts;
    opts.threads = threads;
    symbex::Executor executor({&firewall}, {}, opts);
    (void)executor.run();
    return executor.stats();
  };
  const symbex::ExecutorStats s1 = stats_at(1);
  const symbex::ExecutorStats s4 = stats_at(4);
  EXPECT_EQ(s1.completed_paths, s4.completed_paths);
  EXPECT_EQ(s1.pruned_branches, s4.pruned_branches);
  EXPECT_EQ(s1.abandoned_paths, s4.abandoned_paths);
}

/// max_paths truncation is canonical: the budget keeps the first N paths
/// in canonical signature order — the same N at any thread count, and a
/// prefix of the untruncated canonical path set.
TEST(ParallelExecutor, MaxPathsTruncationIsCanonical) {
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  auto fingerprint = [&](std::size_t threads, std::size_t max_paths,
                         std::size_t* truncated = nullptr) {
    symbex::ExecutorOptions opts;
    opts.threads = threads;
    opts.max_paths = max_paths;
    symbex::Executor executor({&firewall, &router}, {}, opts);
    const std::vector<symbex::PathResult> paths = executor.run();
    if (truncated != nullptr) *truncated = executor.stats().truncated_paths;
    auto namer = [&](symbex::SymId id) {
      return executor.symbols().name(id) + "#" + std::to_string(id);
    };
    std::string out;
    for (const symbex::PathResult& p : paths) {
      out += p.class_label();
      for (const auto& c : p.constraints) out += " & " + c->str(namer);
      out += '\n';
    }
    return out;
  };

  // The chain has more than 5 paths, so a budget of 5 truncates.
  std::size_t truncated = 0;
  const std::string full = fingerprint(1, 4096, &truncated);
  EXPECT_EQ(truncated, 0u);
  const std::string t1 = fingerprint(1, 5, &truncated);
  EXPECT_GT(truncated, 0u);
  EXPECT_EQ(t1, fingerprint(2, 5));
  EXPECT_EQ(t1, fingerprint(8, 5));

  // Truncated output = the first lines of the full canonical output.
  EXPECT_EQ(full.compare(0, t1.size(), t1), 0)
      << "truncated set is not a canonical prefix:\n"
      << t1 << "\n-- full --\n" << full;

  // Degenerate budget: a zero budget keeps nothing (and must not crash).
  EXPECT_EQ(fingerprint(2, 0, &truncated), "");
  EXPECT_GT(truncated, 0u);
}

// ------------------------------------------------------------ contracts --

enum class Subject { kNat, kBridge, kChain, kStatefulChain };

std::string contract_json(Subject subject, std::size_t threads,
                          std::size_t max_paths = 4096) {
  perf::PcvRegistry reg;
  BoltOptions opts;
  opts.threads = threads;
  opts.executor.max_paths = max_paths;

  NfInstance instance;
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  dslib::MethodTable no_methods;
  NfAnalysis analysis;
  switch (subject) {
    case Subject::kNat:
      instance = make_nat(reg, default_nat_config());
      analysis = instance.analysis();
      break;
    case Subject::kBridge:
      instance = make_bridge(reg, default_bridge_config());
      analysis = instance.analysis();
      break;
    case Subject::kChain:
      analysis.name = "firewall+router";
      analysis.programs = {&firewall, &router};
      analysis.methods = &no_methods;
      break;
    case Subject::kStatefulChain:
      // The paper's joint chain analysis with a *stateful* stage: the NAT's
      // model forks per abstract-state case between two stateless NFs, so
      // work stealing sees model forks, branch forks, and loop unrolls.
      instance = make_nat(reg, default_nat_config());
      analysis = instance.analysis();
      analysis.name = "firewall+nat";
      analysis.programs = {&firewall, analysis.programs[0]};
      break;
  }

  ContractGenerator gen(reg, opts);
  const GenerationResult result = gen.generate(analysis);
  // Every subject solves fully: the stateful chain's historically-unknown
  // fw→NAT path is now pruned as infeasible by the truthiness-view
  // propagation (see StatefulChainUnsolvedPin). The count stays part of
  // the fingerprint so a regression shows up at every thread count.
  EXPECT_EQ(result.unsolved_paths, 0u);
  EXPECT_GT(result.total_paths, 0u);

  // Path reports must come back in canonical order with identical keys,
  // not just fold into the same contract.
  std::string json = "unsolved=" + std::to_string(result.unsolved_paths) +
                     "\n" + perf::contract_to_json(result.contract, reg);
  json += "\n-- path reports --\n";
  for (const PathReport& r : result.path_reports) {
    json += r.class_key + " ic=" +
            std::to_string(r.stateless_instructions) + " ma=" +
            std::to_string(r.stateless_accesses) + " cy=" +
            std::to_string(r.stateless_cycles) + "\n";
  }
  return json;
}

class ContractDeterminism : public ::testing::TestWithParam<Subject> {};

TEST_P(ContractDeterminism, BitIdenticalAtOneTwoEightThreads) {
  const std::string t1 = contract_json(GetParam(), 1);
  const std::string t2 = contract_json(GetParam(), 2);
  const std::string t8 = contract_json(GetParam(), 8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

INSTANTIATE_TEST_SUITE_P(NfSubjects, ContractDeterminism,
                         ::testing::Values(Subject::kNat, Subject::kBridge,
                                           Subject::kChain,
                                           Subject::kStatefulChain),
                         [](const ::testing::TestParamInfo<Subject>& info) {
                           switch (info.param) {
                             case Subject::kNat: return "nat";
                             case Subject::kBridge: return "bridge";
                             case Subject::kChain: return "chain";
                             case Subject::kStatefulChain:
                               return "stateful_chain";
                           }
                           return "unknown";
                         });

/// Two generations share the pool at once. Each caller gets whichever
/// helpers are idle (the rest are cancelled, not awaited), and both
/// contracts stay byte-identical to their 1-thread ones.
TEST(ConcurrentGeneration, TwoCallersMatchOneThread) {
  auto contract = [](const std::string& name, std::size_t threads) {
    perf::PcvRegistry reg;
    NfTarget target;
    EXPECT_TRUE(make_named_target(name, reg, target));
    BoltOptions opts;
    opts.threads = threads;
    const GenerationResult g =
        ContractGenerator(reg, opts).generate(target.analysis());
    return perf::contract_to_json(g.contract, reg);
  };
  const std::string router1 = contract("router", 1);
  const std::string chain1 = contract("fw+router", 1);
  for (int round = 0; round < 10; ++round) {
    std::string router4, chain4;
    std::thread a([&] { router4 = contract("router", 4); });
    std::thread b([&] { chain4 = contract("fw+router", 4); });
    a.join();
    b.join();
    EXPECT_EQ(router4, router1) << "round " << round;
    EXPECT_EQ(chain4, chain1) << "round " << round;
  }
}

/// Work stealing + canonical truncation: a tight path budget must yield
/// byte-identical contracts at 1, 2, and 8 threads too (the budget keeps
/// the canonical prefix of the signature-sorted path set regardless of
/// which worker finished which path).
TEST(ContractDeterminismTruncated, BitIdenticalAtOneTwoEightThreads) {
  const std::string t1 = contract_json(Subject::kChain, 1, 5);
  EXPECT_EQ(t1, contract_json(Subject::kChain, 2, 5));
  EXPECT_EQ(t1, contract_json(Subject::kChain, 8, 5));
  const std::string s1 = contract_json(Subject::kStatefulChain, 1, 6);
  EXPECT_EQ(s1, contract_json(Subject::kStatefulChain, 2, 6));
  EXPECT_EQ(s1, contract_json(Subject::kStatefulChain, 8, 6));
}

/// ROADMAP open-item pin, resolved: the fw->NAT chain used to carry
/// exactly ONE path whose bounded search exhausted — the firewall asserts
/// the protocol disjunction ((proto==6)|(proto==17)) and NAT's invalid
/// branch asserts the *same interned node* == 0, a contradiction the
/// interval pass could not see (a disjunction pins no single symbol's
/// interval) and the bounded search could only report as kUnknown. The
/// solver now records every asserted guard's truthiness as a view on its
/// own interned node, so the X ∧ (X == 0) pair is pruned as unsat at the
/// fork. This pin asserts the resolved state: zero unsolved paths, the
/// infeasible fork never completes (11 paths, down from 12), and the
/// contract is unchanged. A propagator/search change that re-introduces an
/// unsolved path — or prunes a *feasible* one — must show up here.
TEST(StatefulChainUnsolvedPin, InfeasibleNatInvalidPathIsPrunedNotUnknown) {
  for (const std::size_t threads : {1u, 4u}) {
    perf::PcvRegistry reg;
    NfInstance instance = make_nat(reg, default_nat_config());
    const ir::Program firewall = nf::Firewall::program();
    NfAnalysis analysis = instance.analysis();
    analysis.name = "firewall+nat";
    analysis.programs = {&firewall, analysis.programs[0]};

    BoltOptions opts;
    opts.threads = threads;
    ContractGenerator gen(reg, opts);
    const GenerationResult result = gen.generate(analysis);

    // No path exhausts its search anymore, at any thread count; the
    // infeasible firewall:no_options/nat:invalid fork is pruned before it
    // completes, so the chain explores 11 full paths instead of 12.
    EXPECT_EQ(result.unsolved_paths, 0u) << "threads=" << threads;
    EXPECT_EQ(result.total_paths, 11u) << "threads=" << threads;
    for (const PathReport& report : result.path_reports) {
      EXPECT_TRUE(report.solved) << report.class_key;
      EXPECT_EQ(report.class_key.find("nat:invalid"), std::string::npos)
          << report.class_key;
    }

    // The contract is exactly what it was when the path sat unsolved: the
    // pruned region never produced an entry (no concrete input existed),
    // and every feasible path still coalesces as before.
    EXPECT_EQ(result.contract.entries().size(), 8u);
    for (const auto& entry : result.contract.entries()) {
      EXPECT_EQ(entry.input_class.find("nat:invalid"), std::string::npos)
          << entry.input_class;
    }
  }
}

/// The new hot-path stats: solver_calls is deterministic (one per
/// feasibility probe on the deterministic exploration tree); steals can
/// only happen when more than one worker exists.
TEST(ParallelExecutor, HotPathStatsAreSane) {
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  auto stats_at = [&](std::size_t threads) {
    symbex::ExecutorOptions opts;
    opts.threads = threads;
    symbex::Executor executor({&firewall, &router}, {}, opts);
    (void)executor.run();
    return executor.stats();
  };
  const symbex::ExecutorStats s1 = stats_at(1);
  EXPECT_EQ(s1.steal_count, 0u) << "one worker cannot steal from itself";
  EXPECT_GT(s1.solver_calls, 0u);
  // Every memoized-search consult belongs to some probe; probes that the
  // verified-prefix fast path settles consult neither side of the cache.
  EXPECT_LE(s1.feas_cache_hits + s1.feas_cache_misses, s1.solver_calls);
  const symbex::ExecutorStats s8 = stats_at(8);
  EXPECT_EQ(s1.solver_calls, s8.solver_calls)
      << "feasibility probes are per-fork and the fork tree is deterministic";
  // The witness cache is carried in each path's state, not in a worker, so
  // its hit/miss split must not depend on the thread count either.
  EXPECT_EQ(s1.feas_cache_hits, s8.feas_cache_hits);
  EXPECT_EQ(s1.feas_cache_misses, s8.feas_cache_misses);
  EXPECT_EQ(s1.solver_unknowns, s8.solver_unknowns);
  EXPECT_EQ(s1.completed_paths, s8.completed_paths);
  EXPECT_EQ(s1.pruned_branches, s8.pruned_branches);
  EXPECT_EQ(s1.merged_states, s8.merged_states);
  EXPECT_EQ(s1.revived_states, s8.revived_states);

  // Branch-join pruning and revival depend only on the exploration tree.
  // The chain's firewall drops option packets, so the router alone is
  // what exercises both.
  auto router_stats_at = [&](std::size_t threads) {
    symbex::ExecutorOptions opts;
    opts.threads = threads;
    symbex::Executor executor({&router}, {}, opts);
    (void)executor.run();
    return executor.stats();
  };
  const symbex::ExecutorStats r1 = router_stats_at(1);
  const symbex::ExecutorStats r8 = router_stats_at(8);
  EXPECT_GT(r1.merged_states, 0u) << "the option-kind arms rejoin";
  EXPECT_EQ(r1.merged_states, r8.merged_states);
  EXPECT_EQ(r1.revived_states, r8.revived_states);
  EXPECT_EQ(r1.completed_paths, r8.completed_paths);
  EXPECT_EQ(r1.solver_calls, r8.solver_calls);
}

// A scenario sweep through the parallel driver matches the sequential
// reference results.
TEST(ParallelScenarios, SweepMatchesSequentialReference) {
  const std::vector<std::string> ids = {"NAT4", "Br2", "LPM2"};
  const std::vector<ScenarioResult> swept = run_scenarios(ids, {}, 4);
  ASSERT_EQ(swept.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    perf::PcvRegistry reg;
    Scenario scenario = make_scenario(ids[i], reg);
    const ScenarioResult ref = run_scenario(scenario, reg);
    EXPECT_EQ(swept[i].id, ids[i]);
    EXPECT_EQ(swept[i].predicted_ic, ref.predicted_ic);
    EXPECT_EQ(swept[i].measured_ic, ref.measured_ic);
    EXPECT_EQ(swept[i].predicted_ma, ref.predicted_ma);
    EXPECT_EQ(swept[i].measured_ma, ref.measured_ma);
    EXPECT_EQ(swept[i].predicted_cycles, ref.predicted_cycles);
    EXPECT_EQ(swept[i].measured_cycles, ref.measured_cycles);
  }
}

}  // namespace
}  // namespace bolt::core
