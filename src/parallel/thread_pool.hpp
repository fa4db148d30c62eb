// Fixed-size thread pool.
//
// The paper's §5.5 calls out that metadata volume "imposes the need for
// efficient computing for scalability" and names parallelization as the
// valuable next step; the matching core (core/parallel_driver) runs its
// job partitions through this pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace pandarus::parallel {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::scoped_lock lock(mutex_);
      queue_.push_back(QueuedTask{[task] { (*task)(); },
                                  std::chrono::steady_clock::now()});
      queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
    cv_.notify_one();
    return future;
  }

  /// Blocks until the queue is empty and all in-flight tasks finished.
  void wait_idle();

 private:
  /// A queued closure plus its enqueue instant, so workers can report
  /// how long it waited (pandarus_pool_task_wait_seconds).
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  // Process-wide pool metrics (all ThreadPool instances aggregate into
  // the same series; the depth gauge is last-writer-wins).
  obs::Counter* tasks_executed_;
  obs::Gauge* queue_depth_;
  obs::Histogram* task_wait_;
};

/// Splits [0, n) into roughly equal chunks and runs `body(begin, end)` on
/// the pool; blocks until all chunks complete.  With a 1-thread pool this
/// degrades to a serial loop with no task overhead.
void parallel_for_chunks(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t min_chunk = 256);

/// Map-reduce over [0, n) in contiguous chunks: `fold(acc, begin, end)`
/// folds one chunk into a local accumulator (default-constructed T) on
/// the pool, then `combine` merges them in chunk order, so the
/// reduction is deterministic regardless of thread scheduling.  Every
/// chunk has finished before this returns or rethrows a chunk's
/// exception, so `fold` may reference the caller's locals.
template <typename T, typename Fold, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t n, Fold fold, Combine combine,
                  std::size_t min_chunk = 256) {
  if (n == 0) return T{};
  const std::size_t max_chunks = std::max<std::size_t>(1, pool.size() * 4);
  const std::size_t chunk =
      std::max(min_chunk, (n + max_chunks - 1) / max_chunks);
  std::vector<std::future<T>> futures;
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    futures.push_back(pool.submit([=] {
      T acc{};
      fold(acc, begin, end);
      return acc;
    }));
  }
  for (const auto& future : futures) future.wait();
  T result = futures.front().get();
  for (std::size_t i = 1; i < futures.size(); ++i)
    combine(result, futures[i].get());
  return result;
}

}  // namespace pandarus::parallel
