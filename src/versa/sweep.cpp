#include "versa/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "util/budget.hpp"

namespace aadlsched::versa {

SweepReport parallel_sweep(std::size_t jobs,
                           const std::function<void(std::size_t)>& job,
                           std::size_t workers) {
  SweepReport report;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < jobs; i = next++) {
      // Isolation boundary: an exception escaping a std::thread terminates
      // the process, so every job runs under try/catch and failures become
      // structured records. The fault-injection probe sits inside the
      // guarded region — an injected job fault exercises exactly the path a
      // real throwing job takes.
      try {
        util::FaultInjector::global().maybe_throw_job();
        job(i);
        std::lock_guard lk(mu);
        ++report.completed;
      } catch (const std::exception& e) {
        std::lock_guard lk(mu);
        report.failures.push_back(SweepFailure{i, e.what()});
      } catch (...) {
        std::lock_guard lk(mu);
        report.failures.push_back(SweepFailure{i, "unknown exception"});
      }
    }
  };
  if (workers == 0)
    workers = std::max(1u, std::thread::hardware_concurrency());
  // A thread per job at most: surplus workers would only sit idle.
  std::vector<std::thread> threads(std::min(workers, jobs));
  for (std::thread& t : threads) t = std::thread(work);
  for (std::thread& t : threads) t.join();
  std::sort(report.failures.begin(), report.failures.end(),
            [](const SweepFailure& a, const SweepFailure& b) {
              return a.job < b.job;
            });
  return report;
}

}  // namespace aadlsched::versa
