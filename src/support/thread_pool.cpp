#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/telemetry/telemetry.h"

namespace jpg {

namespace {
/// The pool whose worker_loop is running on this thread (null on any
/// non-worker thread, including a parallel_for caller participating from
/// outside the pool).
thread_local const ThreadPool* tl_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  tl_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      JPG_GAUGE_SET("pool.queue_depth", tasks_.size());
    }
    JPG_TELEM(const std::uint64_t telem_t0 = telemetry::now_ns();)
    task();
    JPG_COUNT("pool.tasks", 1);
    JPG_HIST("pool.task_ns", telemetry::now_ns() - telem_t0);
  }
}

namespace {

/// Shared by the caller and every enqueued helper task, so helper copies
/// that outlive the parallel_for call (they may still be draining their
/// claim loop after the last iteration completes) never touch dead stack
/// frames.
struct ParallelForContext {
  std::size_t n = 0;
  const std::function<void(std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr first_error;

  void run() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        (*body)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        const std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t max_threads) {
  if (n == 0) return;
  // On a single worker, a width cap of 1 or tiny n run inline: no
  // synchronization cost and identical iteration order, which keeps seeded
  // algorithms deterministic.
  if (workers_.size() <= 1 || max_threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  auto ctx = std::make_shared<ParallelForContext>();
  ctx->n = n;
  ctx->body = &body;  // the caller outlives every *iteration* (see wait)

  // Helper tasks beside the caller: one per worker, at most
  // max_threads - 1 under a cap.
  std::size_t chunks = std::min(n, workers_.size());
  if (max_threads != 0) chunks = std::min(chunks, max_threads - 1);
  JPG_COUNT("pool.parallel_fors", 1);
  JPG_HIST("pool.parallel_for_n", n);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    JPG_TELEM(const std::uint64_t telem_enq = telemetry::now_ns();)
    for (std::size_t c = 0; c < chunks; ++c) {
      JPG_TELEM(tasks_.emplace([ctx, telem_enq] {
        JPG_HIST("pool.queue_wait_ns", telemetry::now_ns() - telem_enq);
        ctx->run();
      });)
#if !JPG_TELEMETRY_ENABLED
      tasks_.emplace([ctx] { ctx->run(); });
#endif
    }
    JPG_GAUGE_SET("pool.queue_depth", tasks_.size());
  }
  cv_.notify_all();
  // The caller participates too, so the pool can never deadlock on nested use.
  ctx->run();

  std::unique_lock<std::mutex> lock(ctx->mutex);
  ctx->cv.wait(lock, [&] {
    return ctx->done.load(std::memory_order_acquire) >= n;
  });
  if (ctx->first_error) std::rethrow_exception(ctx->first_error);
}

void ThreadPool::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.emplace(std::move(task));
    JPG_GAUGE_SET("pool.queue_depth", tasks_.size());
  }
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() const noexcept {
  return tl_worker_pool == this;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace jpg
