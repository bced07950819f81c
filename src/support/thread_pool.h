// A small work-stealing-free thread pool with a parallel_for helper.
//
// jpg-cpp runs one pool per process, ThreadPool::global(), sized to the
// hardware. Its users: the PathFinder router's per-net path searches within
// an iteration (parallel_for), and the ReconfigService's executions, which
// also carry the scheduler's nodes (post). A caller that wants a narrower
// fan-out caps parallel_for's width instead of building a pool of its own;
// no width value creates a thread beyond the global pool's workers. On a
// one-worker pool parallel_for degrades to a plain loop with no thread
// overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace jpg {

class ThreadPool {
 public:
  /// `num_threads == 0` means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Runs `body(i)` for i in [0, n). Blocks until all iterations finish.
  /// Exceptions from `body` are rethrown (first one wins) on the caller.
  /// `max_threads` caps the width, caller included: 0 is the caller plus
  /// every worker, 1 runs inline on the caller in index order, k > 1 the
  /// caller plus at most k - 1 helper tasks.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t max_threads = 0);

  /// Enqueues one task for any worker and returns without running it.
  /// Any thread may post, one of this pool's own workers included (on a
  /// one-worker pool the posted task runs once the poster's task returns).
  /// There is no future: a task reports its own completion. A task must
  /// not throw; an exception escaping it terminates the process.
  void post(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Shared process-wide pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace jpg
