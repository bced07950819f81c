// A small work-stealing-free thread pool with a parallel_for helper.
//
// jpg-cpp runs one pool per process, ThreadPool::global(), sized to the
// hardware. Its users: the PathFinder router's per-net path searches within
// an iteration, PartialBitstreamGenerator::generate_batch's fan-out over
// disjoint regions, and the ReconfigService's executions (which also carry
// the scheduler's nodes). A caller that wants a narrower fan-out caps
// parallel_for's width instead of building a pool of its own; no width
// value creates a thread beyond the global pool's workers. On a
// one-worker pool parallel_for degrades to a plain loop with no thread
// overhead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
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

  /// Observed execution shape of one parallel_for call. `workers_used` is
  /// the number of distinct threads (pool workers plus the caller) that
  /// claimed at least one iteration — the honest fan-out, as opposed to the
  /// pool's nominal size. It depends on scheduling, so it is telemetry,
  /// never an input to any deterministic computation.
  struct ParallelForStats {
    std::size_t workers_used = 0;
  };

  /// Runs `body(i)` for i in [0, n). Blocks until all iterations finish.
  /// Exceptions from `body` are rethrown (first one wins) on the caller.
  /// `max_threads` caps the width, caller included: 0 is the caller plus
  /// every worker, 1 runs inline on the caller in index order, k > 1 the
  /// caller plus at most k - 1 helper tasks. `stats`, when non-null,
  /// receives the observed execution shape.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t max_threads = 0,
                    ParallelForStats* stats = nullptr);

  /// Enqueues one task for any worker; the future becomes ready when it
  /// finishes (an exception thrown by the task is delivered through the
  /// future). Unlike parallel_for the caller does not participate, so it can
  /// overlap its own work with the task.
  ///
  /// Throws JpgError when called from one of this pool's own workers: a
  /// pool task that waits on a task of its own pool can deadlock once every
  /// worker waits. Submit from a non-worker thread (or another pool).
  [[nodiscard]] std::future<void> submit(std::function<void()> task);

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
