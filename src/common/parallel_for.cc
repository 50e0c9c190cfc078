#include "common/parallel_for.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace av {

namespace {
/// Helper threads no loop holds.
std::atomic<size_t>& FreeHelpers() {
  static std::atomic<size_t> free_helpers{
      std::max<size_t>(1, std::thread::hardware_concurrency()) - 1};
  return free_helpers;
}
}  // namespace

void ParallelFor(size_t max_threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  struct Work {
    std::atomic<size_t> next{0};
    size_t count;
    const std::function<void(size_t)>* fn;
    void Run() {
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count) {
        (*fn)(i);
      }
    }
  } work{{}, count, &fn};
  const auto run = [](void* w) -> void* {
    static_cast<Work*>(w)->Run();
    return nullptr;
  };
  const size_t want = std::max<size_t>(1, std::min(max_threads, count)) - 1;
  std::atomic<size_t>& free_helpers = FreeHelpers();
  size_t free = free_helpers.load(std::memory_order_relaxed);
  size_t taken = std::min(free, want);
  while (taken > 0 && !free_helpers.compare_exchange_weak(
                          free, free - taken, std::memory_order_relaxed)) {
    taken = std::min(free, want);
  }
  std::vector<pthread_t> helpers;
  helpers.reserve(taken);
  for (size_t t = 0; t < taken; ++t) {
    pthread_t helper;
    // No thread to spare: the caller runs what is left.
    if (pthread_create(&helper, nullptr, run, &work) != 0) break;
    helpers.push_back(helper);
  }
  work.Run();
  for (const pthread_t helper : helpers) pthread_join(helper, nullptr);
  free_helpers.fetch_add(taken, std::memory_order_relaxed);
}

}  // namespace av
