// Minimal work-stealing-free thread pool behind versa::parallel_sweep. The
// sweep drives the pool in one bulk round of independent jobs, so a simple
// shared queue with a condition variable is both sufficient and easy to
// reason about.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace aadlsched::util {

class ThreadPool {
 public:
  /// Spawns `workers` threads; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Enqueue a task. Tasks must not throw (the pool terminates on escape).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing.
  void wait_idle();

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace aadlsched::util
