// E7b — throughput of analysis sweeps. A Context is single-threaded by
// design, so parallelism lives at the sweep level: N independent analyses
// (one model variant each) across worker threads. Table: batch wall time vs
// worker count. On a single-core host the speedup is ~1x by construction;
// the bench still validates that the sweep scales with available
// hardware_concurrency and adds no contention overhead.
#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "versa/sweep.hpp"

namespace {

using namespace aadlsched;

constexpr int kBatch = 24;

void one_job(std::size_t i) {
  sched::TaskSet ts =
      bench::workload(static_cast<std::uint64_t>(i) * 17 + 5, 4, 0.85);
  sched::assign_rate_monotonic(ts);
  benchmark::DoNotOptimize(
      bench::run_taskset(ts, sched::SchedulingPolicy::FixedPriority));
}

void print_table() {
  bench::print_header("E7b: parallel analysis sweeps",
                      "independent analyses scale across workers (bounded "
                      "by physical cores; this host reports its own "
                      "concurrency)");
  std::printf("hardware_concurrency = %u, batch = %d analyses\n",
              std::thread::hardware_concurrency(), kBatch);
  std::printf("%8s %12s %10s\n", "workers", "time_ms", "speedup");
  double base = 0;
  for (std::size_t workers : {1u, 2u, 4u}) {
    const auto t0 = std::chrono::steady_clock::now();
    versa::parallel_sweep(kBatch, one_job, workers);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (workers == 1) base = ms;
    std::printf("%8zu %12.2f %9.2fx\n", workers, ms,
                base > 0 ? base / ms : 1.0);
  }
  std::printf("\n");
}

void BM_SweepSequential(benchmark::State& state) {
  for (auto _ : state) versa::parallel_sweep(8, one_job, 1);
}
BENCHMARK(BM_SweepSequential);

void BM_SweepParallel(benchmark::State& state) {
  for (auto _ : state) versa::parallel_sweep(8, one_job, 0);
}
BENCHMARK(BM_SweepParallel);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
