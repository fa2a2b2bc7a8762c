#include "support/thread_pool.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace bolt::support {

namespace {
/// True while this thread is inside a group: always on pool threads, and
/// on an owner while its group is open.
thread_local bool t_in_group = false;
}  // namespace

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace detail {

/// The process-wide pool: its threads and the helpers queued for them.
struct Pool {
  struct Job {
    TaskGroup* group;
    std::size_t k;
  };

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
      const Job job = queue.front();
      queue.pop_front();
      TaskGroup& g = *job.group;
      ++g.running_;
      lock.unlock();
      std::exception_ptr error;
      try {
        g.helper_(job.k);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      if (error && !g.error_) g.error_ = std::move(error);
      // Notified under the lock: the owner cannot destroy the group until
      // this thread lets go of it.
      if (--g.running_ == 0) g.done_.notify_all();
    }
  }

  std::mutex mutex;  // guards the members below and every group's batch state
  std::condition_variable work_cv;
  std::deque<Job> queue;
  bool shutdown = false;
  std::vector<std::thread> threads;  // last: joined before the rest dies
};

}  // namespace detail

TaskGroup::TaskGroup(std::size_t width, std::function<void(std::size_t)> helper)
    : helper_(std::move(helper)),
      outer_(std::exchange(t_in_group, true)),
      width_(outer_ ? 1 : resolve_threads(width)) {
  if (width_ == 1) return;
  detail::Pool& pool = detail::Pool::get();
  std::lock_guard<std::mutex> lock(pool.mutex);
  while (pool.threads.size() + 1 < width_) {
    pool.threads.emplace_back([&pool] { pool.run(); });
  }
}

bool TaskGroup::add_helper() {
  if (size() >= width_) return false;
  detail::Pool& pool = detail::Pool::get();
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    const std::size_t k = size();
    if (closed_ || k >= width_) return false;
    added_.store(k, std::memory_order_release);
    pool.queue.push_back({this, k});
  }
  pool.work_cv.notify_one();
  return true;
}

std::exception_ptr TaskGroup::join() {
  t_in_group = outer_;
  if (width_ == 1) return nullptr;
  detail::Pool& pool = detail::Pool::get();
  std::unique_lock<std::mutex> lock(pool.mutex);
  if (!closed_) {
    closed_ = true;
    auto& q = pool.queue;
    q.erase(std::remove_if(q.begin(), q.end(),
                           [this](const detail::Pool::Job& j) { return j.group == this; }),
            q.end());
  }
  done_.wait(lock, [this] { return running_ == 0; });
  return std::exchange(error_, nullptr);
}

void TaskGroup::wait() {
  if (std::exception_ptr error = join()) std::rethrow_exception(error);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t width,
                  const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  std::atomic<std::size_t> next{begin};
  auto drain = [&](std::size_t) {
    try {
      for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < end;) {
        body(i);
      }
    } catch (...) {
      next.store(end, std::memory_order_relaxed);  // hand out no more
      throw;
    }
  };
  TaskGroup group(std::min(resolve_threads(width), end - begin), drain);
  while (group.add_helper()) {
  }
  drain(0);
  group.wait();
}

}  // namespace bolt::support
