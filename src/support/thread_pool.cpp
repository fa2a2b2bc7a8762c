#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bolt::support {

namespace {

/// True while this thread is inside a parallel_for: always on pool
/// threads, and on a caller while its call runs.
thread_local bool t_in_group = false;

/// The helpers' side of one parallel_for call. Every member but `work` is
/// guarded by the pool mutex.
struct Group {
  std::function<void()> work;
  std::size_t running = 0;
  std::exception_ptr error;
  std::condition_variable done;
};

/// The process-wide pool: its threads and the helpers queued for them.
struct Pool {
  static Pool& get() {
    static Pool pool;
    return pool;
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      shutdown = true;
    }
    work_cv.notify_all();
    for (std::thread& t : threads) t.join();
  }

  void run() {
    t_in_group = true;
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      work_cv.wait(lock, [this] { return shutdown || !queue.empty(); });
      if (queue.empty()) return;
      Group& g = *queue.front();
      queue.pop_front();
      ++g.running;
      lock.unlock();
      std::exception_ptr error;
      try {
        g.work();
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !g.error) g.error = std::move(error);
      // Notified under the lock: the caller cannot destroy the group until
      // this thread lets go of it.
      if (--g.running == 0) g.done.notify_all();
    }
  }

  std::mutex mutex;  // guards the members below and every group's batch state
  std::condition_variable work_cv;
  std::deque<Group*> queue;  // one entry per queued helper
  bool shutdown = false;
  std::vector<std::thread> threads;  // last: joined before the rest dies
};

}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t usable_threads(std::size_t width) {
  return t_in_group ? 1 : resolve_threads(width);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t width,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const bool outer = std::exchange(t_in_group, true);
  struct Restore {
    bool outer;
    ~Restore() { t_in_group = outer; }
  } restore{outer};
  const std::size_t n = outer ? 1 : std::min(resolve_threads(width), end - begin);
  if (n == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{begin};
  Group group;
  group.work = [&] {
    try {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < end;) {
        body(i);
      }
    } catch (...) {
      next.store(end, std::memory_order_relaxed);  // hand out no more
      throw;
    }
  };
  Pool& pool = Pool::get();
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    while (pool.threads.size() + 1 < n) {
      pool.threads.emplace_back([&pool] { pool.run(); });
    }
    pool.queue.insert(pool.queue.end(), n - 1, &group);
  }
  for (std::size_t k = 1; k < n; ++k) pool.work_cv.notify_one();

  std::exception_ptr error;
  try {
    group.work();
  } catch (...) {
    error = std::current_exception();
  }
  // Cancel the helpers no pool thread has started and wait for the rest.
  std::unique_lock<std::mutex> lock(pool.mutex);
  pool.queue.erase(std::remove(pool.queue.begin(), pool.queue.end(), &group),
                   pool.queue.end());
  group.done.wait(lock, [&group] { return group.running == 0; });
  if (!error) error = std::move(group.error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace bolt::support
