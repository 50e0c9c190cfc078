// Fixed-size thread pool of the offline indexing job, ValidationService,
// the network Server and the evaluator.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace av {

/// A fixed pool of worker threads executing submitted tasks FIFO.
///
/// `Wait()` blocks until all submitted tasks have completed. The pool may be
/// reused after `Wait()`. Destruction joins all workers.
class ThreadPool {
 public:
  /// `num_threads` == 0 selects `std::thread::hardware_concurrency()`.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool, blocking until done.
  /// Work is divided into contiguous chunks to limit scheduling overhead.
  /// The calling thread participates in its own chunk loop (on a 1-worker
  /// pool the loop runs entirely inline), and the call waits only for its
  /// own chunks — it is never serialized behind unrelated tasks that other
  /// pool users queued concurrently.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace av
