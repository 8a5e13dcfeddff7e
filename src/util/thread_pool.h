// A small fixed-size thread pool.
//
// Workers in dist/ use this to run their per-round node computations. On a
// many-core host this yields real parallelism; on the 1-core benchmark box
// it degrades to sequential execution, which is why the cost model
// (DESIGN.md §3) reports modeled parallel time from per-worker busy-time
// counters rather than relying on wall-clock speedup.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace s2::util {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task; the returned future resolves when it completes.
  std::future<void> Submit(std::function<void()> task);

  // Runs `task(i)` for i in [0, count) across the pool and blocks until
  // every iteration has finished. Exceptions from tasks are rethrown
  // (the first one observed).
  //
  // Re-entrant: the calling thread participates in the loop (iterations are
  // claimed from a shared atomic cursor), so nesting a ParallelFor inside a
  // ParallelFor task on the same pool cannot deadlock — the inner call makes
  // progress on the caller's own thread even when every pool thread is
  // blocked in an outer iteration. Nothing in dist/ nests today (the CPO
  // and DPO fan out one level, over workers or queries); the guarantee
  // keeps a task that does fan out again deadlock-free.
  void ParallelFor(size_t count, const std::function<void(size_t)>& task);

  size_t size() const { return threads_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

}  // namespace s2::util
