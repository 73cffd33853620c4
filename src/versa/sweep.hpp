// Parallel analysis sweeps.
//
// Parallelism in this codebase is across models: independent analyses —
// one model variant per job, each with a private Context — run
// concurrently on a thread pool, sharing nothing, so utilization sweeps
// are embarrassingly parallel. Each single exploration stays on one
// thread (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace aadlsched::versa {

/// A job that escaped with an exception (or was fault-injected, see
/// util::FaultInjector Site::Job). The sweep records it and carries on —
/// one poisoned model must not kill the whole pool.
struct SweepFailure {
  std::size_t job = 0;
  std::string error;  // exception::what(), or "unknown exception"
};

struct SweepReport {
  std::size_t completed = 0;  // jobs that ran to the end
  std::vector<SweepFailure> failures;  // sorted by job index

  bool ok() const { return failures.empty(); }
};

/// Run `job(i)` for i in [0, jobs) across `workers` threads (0 = hardware
/// concurrency). Each job must be self-contained (build its own Context)
/// and is isolated: a throwing job becomes a SweepFailure record instead of
/// terminating the pool (util::ThreadPool tasks must not throw). Callers
/// that need per-job budgets attach a RunBudget inside the job itself —
/// budgets are per-analysis, so isolation and governance compose.
SweepReport parallel_sweep(std::size_t jobs,
                           const std::function<void(std::size_t)>& job,
                           std::size_t workers = 0);

}  // namespace aadlsched::versa
