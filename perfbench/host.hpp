// Host correction: the reference-kernel child process, windows of workload
// bracketed by kernel runs, and the statistics the metrics are made of.
//
// Every timing the benchmark reports is raw * (ref_nominal / ref_measured),
// where ref_measured is the mean of the two kernel runs that bracket the
// window the timing was taken in. The kernel runs on as many threads as the
// workload keeps busy, so it sees the same share of the host the workload
// saw.
#pragma once

#include <cstddef>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

/// Committed reference-kernel wall times in ms, indexed by thread count
/// (index 0 unused): typical run medians on a 4-core x86-64 Xeon VM. They
/// only fix the scale of the corrected figures; changing them would make
/// every corrected timing incomparable with earlier runs.
inline constexpr double kRefNominalMs[] = {0, 45.0, 46.0};
inline constexpr std::size_t kMaxRefThreads = 2;

/// The perfbench_ref child. Spawned on construction, stopped and reaped on
/// destruction.
class HostRef {
 public:
  explicit HostRef(const std::string& exe);
  ~HostRef();
  HostRef(const HostRef&) = delete;
  HostRef& operator=(const HostRef&) = delete;

  /// One kernel run on `threads` threads; wall ms.
  double run(std::size_t threads);

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// Confine this thread, and every thread and process it starts from now
/// on, to the `n` highest-numbered CPUs the process was started with. The
/// workload and the reference kernel then share the same CPUs, so the
/// kernel sees the contention those CPUs see. On a single CPU also limits
/// malloc to one arena (see host.cpp). Returns the CPU list, e.g. "2,3".
std::string pin_cpus(std::size_t n);

double now_ms();      // steady clock
double process_cpu_ms();  // user + system CPU time
double peak_rss_mb();  // ru_maxrss

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// A timed run split into windows, each followed by one kernel run.
class Windows {
 public:
  Windows(HostRef& ref, std::size_t threads);

  /// Start a window (the kernel run before it is the previous window's
  /// closing run, or the one taken at construction).
  void open();
  /// Close the current window, run the kernel, and return its correction
  /// factor. `verdicts` counts work completed in the window.
  double close(std::size_t verdicts);

  std::size_t index() const { return factors_.size(); }
  double factor(std::size_t window) const { return factors_[window]; }
  double nominal() const { return kRefNominalMs[threads_]; }
  std::size_t threads() const { return threads_; }
  const std::vector<double>& ref_ms() const { return ref_ms_; }

  // Totals over closed windows, raw and corrected.
  double raw_wall_ms = 0, wall_ms = 0;
  double raw_cpu_ms = 0, cpu_ms = 0;
  std::size_t verdicts = 0;

 private:
  HostRef& ref_;
  std::size_t threads_;
  std::vector<double> ref_ms_;
  std::vector<double> factors_;
  double wall0_ = 0, cpu0_ = 0;
};

/// Host-corrected one-off timings (set-up): kernel before and after.
class Bracket {
 public:
  Bracket(HostRef& ref, std::size_t threads);
  void start();
  /// Raw ms since start(); the corrected value goes to `corrected`.
  double stop(double& corrected);

 private:
  HostRef& ref_;
  std::size_t threads_;
  double before_ = 0, t0_ = 0;
};

}  // namespace perfbench
