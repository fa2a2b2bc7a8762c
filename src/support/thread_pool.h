// One process-wide pool of persistent worker threads, shared by the
// parallel stages of Bolt: monitor partitions and scenario sweeps.
//
//   * persistent — the pool starts on the first call wider than one thread
//     and grows to the widest width requested so far; it never shrinks.
//     A call no wider than an earlier one creates no threads;
//   * width — a call asks for how many threads may work on it at once,
//     the caller included (0 = one per hardware thread). `--threads 8` on
//     a 4-CPU host still means 8 concurrent workers;
//   * inline rule — a width-1 call, or any call from a thread already
//     inside a call (a helper, or a caller whose call is running), runs on
//     the calling thread and touches no shared pool state. Nesting never
//     oversubscribes or deadlocks, and one thread stays one thread;
//   * concurrent callers — each call has its own batch state. A call waits
//     only for helpers that have started and cancels the queued ones, so a
//     caller never waits on a thread busy for another caller;
//   * determinism at the call site — parallel_for hands out disjoint
//     indices and the caller writes results into per-index slots;
//   * fail loudly — the first exception a body throws is rethrown on the
//     calling thread (BOLT_CHECK aborts outright, which is also fine: a
//     wrong report is worse than a dead run).
#pragma once

#include <cstddef>
#include <functional>

namespace bolt::support {

/// Resolves a thread-count knob: 0 means "one per hardware thread",
/// anything else is used as given (clamped to >= 1).
std::size_t resolve_threads(std::size_t requested);

/// The most threads a parallel_for of `width` called from this thread
/// would run on: 1 inside a parallel_for (the inline rule), otherwise
/// resolve_threads(width).
std::size_t usable_threads(std::size_t width);

/// Runs body(i) for every i in [begin, end) on up to `width` threads (never
/// more than end - begin), the calling thread included, handing indices
/// out dynamically, and blocks until all complete. The first exception any
/// body throws stops further indices and is rethrown here.
void parallel_for(std::size_t begin, std::size_t end, std::size_t width,
                  const std::function<void(std::size_t)>& body);

}  // namespace bolt::support
