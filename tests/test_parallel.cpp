// The shared pool and the pipeline around it. The pool is unit-tested
// (full index coverage, exception propagation, concurrent and nested
// callers, cancellation, thread persistence). Contract generation is
// serial: it starts no thread, two generations on different threads at
// once each match a sequential run (the expression interner is shared),
// and max_paths truncation keeps the canonical prefix. The scenario sweep,
// which does run on the pool, matches its sequential reference.
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

/// A helper still queued when its caller runs out of indices is cancelled:
/// the caller never waits on a pool thread that is busy for another caller.
TEST(ThreadPool, QueuedHelpersAreCancelledNotAwaited) {
  // Wider than any other call in this binary, so its helpers occupy every
  // pool thread; each index blocks until released.
  constexpr std::size_t kWide = 32;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t started = 0;
  bool release = false;
  std::thread blocker([&] {
    support::parallel_for(0, kWide, kWide, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return started == kWide; });
  }

  std::atomic<bool> helper_ran{false};
  std::thread other([&] {
    const std::thread::id self = std::this_thread::get_id();
    // Must return although no pool thread is free: the caller runs both
    // indices and cancels its queued helper.
    support::parallel_for(0, 2, 2, [&](std::size_t) {
      if (std::this_thread::get_id() != self) helper_ran = true;
    });
  });
  other.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  blocker.join();
  EXPECT_FALSE(helper_ran.load());
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

/// Generation is serial: generate() starts no thread.
TEST(ThreadPool, GenerationStartsNoThread) {
  const std::size_t before = task_count();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is not readable";
  for (int i = 0; i < 20; ++i) {
    perf::PcvRegistry reg;
    NfTarget target;
    ASSERT_TRUE(make_named_target("router", reg, target));
    (void)ContractGenerator(reg).generate(target.analysis());
  }
  EXPECT_EQ(task_count(), before);
}

// ------------------------------------------------------------ executor --

/// max_paths truncation is canonical: the budget keeps the first N paths
/// in canonical signature order, a prefix of the untruncated canonical path
/// set.
TEST(Executor, MaxPathsTruncationIsCanonical) {
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  auto fingerprint = [&](std::size_t max_paths, std::size_t* truncated) {
    symbex::ExecutorOptions opts;
    opts.max_paths = max_paths;
    symbex::Executor executor({&firewall, &router}, {}, opts);
    const std::vector<symbex::PathResult> paths = executor.run();
    *truncated = executor.stats().truncated_paths;
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
  const std::string full = fingerprint(4096, &truncated);
  EXPECT_EQ(truncated, 0u);
  const std::string prefix = fingerprint(5, &truncated);
  EXPECT_GT(truncated, 0u);

  // Truncated output = the first lines of the full canonical output.
  EXPECT_EQ(full.compare(0, prefix.size(), prefix), 0)
      << "truncated set is not a canonical prefix:\n"
      << prefix << "\n-- full --\n" << full;

  // Degenerate budget: a zero budget keeps nothing (and must not crash).
  EXPECT_EQ(fingerprint(0, &truncated), "");
  EXPECT_GT(truncated, 0u);
}

// ------------------------------------------------------------ contracts --

/// Two generations run at once on different threads. They share the
/// expression interner; both contracts stay byte-identical to sequential
/// runs.
TEST(ConcurrentGeneration, TwoCallersMatchSequentialRuns) {
  auto contract = [](const std::string& name) {
    perf::PcvRegistry reg;
    NfTarget target;
    EXPECT_TRUE(make_named_target(name, reg, target));
    const GenerationResult g = ContractGenerator(reg).generate(target.analysis());
    return perf::contract_to_json(g.contract, reg);
  };
  const std::string router = contract("router");
  const std::string chain = contract("fw+router");
  for (int round = 0; round < 10; ++round) {
    std::string router_concurrent, chain_concurrent;
    std::thread a([&] { router_concurrent = contract("router"); });
    std::thread b([&] { chain_concurrent = contract("fw+router"); });
    a.join();
    b.join();
    EXPECT_EQ(router_concurrent, router) << "round " << round;
    EXPECT_EQ(chain_concurrent, chain) << "round " << round;
  }
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
  perf::PcvRegistry reg;
  NfInstance instance = make_nat(reg, default_nat_config());
  const ir::Program firewall = nf::Firewall::program();
  NfAnalysis analysis = instance.analysis();
  analysis.name = "firewall+nat";
  analysis.programs = {&firewall, analysis.programs[0]};

  ContractGenerator gen(reg);
  const GenerationResult result = gen.generate(analysis);

  // No path exhausts its search anymore; the infeasible
  // firewall:no_options/nat:invalid fork is pruned before it completes, so
  // the chain explores 11 full paths instead of 12.
  EXPECT_EQ(result.unsolved_paths, 0u);
  EXPECT_EQ(result.total_paths, 11u);
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

/// The hot-path stats: every witness-cache consult belongs to some probe,
/// and the router's option-kind arms rejoin and merge.
TEST(Executor, HotPathStatsAreSane) {
  const ir::Program firewall = nf::Firewall::program();
  const ir::Program router = nf::StaticRouter::program();
  auto stats_of = [](std::vector<const ir::Program*> programs) {
    symbex::Executor executor(std::move(programs), {});
    (void)executor.run();
    return executor.stats();
  };
  const symbex::ExecutorStats chain = stats_of({&firewall, &router});
  EXPECT_GT(chain.solver_calls, 0u);
  // Probes that the verified-prefix fast path settles consult neither side
  // of the cache.
  EXPECT_LE(chain.feas_cache_hits + chain.feas_cache_misses, chain.solver_calls);

  // The chain's firewall drops option packets, so the router alone is what
  // exercises branch-join pruning.
  EXPECT_GT(stats_of({&router}).merged_states, 0u) << "the option-kind arms rejoin";
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
