// One process-wide pool of persistent worker threads, shared by every
// parallel stage of the Bolt pipeline (exploration, per-path solving,
// concrete replay, monitor partitions, scenario sweeps).
//
//   * persistent — the pool starts on the first call wider than one thread
//     and grows to the widest width requested so far; it never shrinks.
//     After the first generate(), a call creates no threads, and a
//     thread_local cache on a pool thread persists across calls;
//   * width — a stage asks for how many threads may work on it at once,
//     the caller included (0 = one per hardware thread). `--threads 8` on
//     a 4-CPU host still means 8 concurrent workers;
//   * inline rule — a width-1 call, or any call from a thread already
//     inside a group (a helper, or an owner whose group is open), runs on
//     the calling thread and touches no shared pool state. Nesting never
//     oversubscribes or deadlocks, and one thread stays one thread;
//   * concurrent callers — each group has its own batch state. wait()
//     waits only for helpers that have started and cancels the queued
//     ones, so a caller never waits on a thread busy for another caller;
//   * determinism at the call site — parallel_for hands out disjoint
//     indices and the caller writes results into per-index slots;
//   * fail loudly — the first exception a helper throws is rethrown on the
//     owning thread (BOLT_CHECK aborts outright, which is also fine: a
//     wrong contract is worse than a dead analysis run).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>

namespace bolt::support {

/// Resolves a thread-count knob: 0 means "one per hardware thread",
/// anything else is used as given (clamped to >= 1).
std::size_t resolve_threads(std::size_t requested);

namespace detail {
struct Pool;
}  // namespace detail

/// Up to width() threads working on one job: the owner (the thread that
/// opens the group, always taking part, and the one that must wait() and
/// destroy it) plus helpers started on idle pool threads.
class TaskGroup {
 public:
  /// Opens a group of `width` threads (0 = one per hardware thread).
  /// Helper k = 1, 2, ... runs `helper(k)`; the owner runs its own share.
  /// A group opened inside another group has width() == 1.
  TaskGroup(std::size_t width, std::function<void(std::size_t)> helper);
  /// Closes the group like wait(), but drops an uncollected helper error:
  /// the owner is then unwinding with its own.
  ~TaskGroup() { join(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  std::size_t width() const { return width_; }
  /// The owner plus every helper added so far (any helper k < size() may
  /// have started). Safe from any thread of the group.
  std::size_t size() const { return 1 + added_.load(std::memory_order_acquire); }

  /// Queues one more helper if the group is open and below its width;
  /// returns whether it did. Safe from any thread of the group.
  bool add_helper();

  /// Closes the group: cancels helpers that have not started, waits for
  /// the started ones, and rethrows the first exception one threw.
  void wait();

 private:
  friend struct detail::Pool;

  std::exception_ptr join();

  std::function<void(std::size_t)> helper_;
  bool outer_;  // whether the owner was inside a group before this one
  std::size_t width_;
  std::atomic<std::size_t> added_{0};
  // Guarded by the pool mutex.
  std::size_t running_ = 0;
  bool closed_ = false;
  std::exception_ptr error_;
  std::condition_variable done_;
};

/// Runs body(i) for every i in [begin, end) on a group of up to `width`
/// threads (never more than end - begin), handing indices out dynamically,
/// and blocks until all complete. The first exception any body throws
/// stops further indices and is rethrown here.
void parallel_for(std::size_t begin, std::size_t end, std::size_t width,
                  const std::function<void(std::size_t)>& body);

}  // namespace bolt::support
