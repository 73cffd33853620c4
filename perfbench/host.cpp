#include "host.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {

HostRef::HostRef(const std::string& exe) {
  int in[2], out[2];
  if (pipe(in) != 0 || pipe(out) != 0)
    throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, in[1]);
  posix_spawn_file_actions_addclose(&fa, out[0]);
  char* argv[] = {const_cast<char*>(exe.c_str()), nullptr};
  const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&fa);
  close(in[0]);
  close(out[1]);
  to_child_ = in[1];
  from_child_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start reference kernel " + exe);
  }
}

HostRef::~HostRef() {
  if (to_child_ >= 0) close(to_child_);  // EOF ends the child
  if (pid_ > 0) {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (from_child_ >= 0) close(from_child_);
}

double HostRef::run(std::size_t threads) {
  const std::string cmd = std::to_string(threads) + "\n";
  if (write(to_child_, cmd.data(), cmd.size()) !=
      static_cast<ssize_t>(cmd.size()))
    throw std::runtime_error("reference kernel: write failed");
  std::string line;
  char c = 0;
  while (true) {
    const ssize_t n = read(from_child_, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n != 1) throw std::runtime_error("reference kernel: no reply");
    if (c == '\n') break;
    line += c;
  }
  const double ms = std::strtod(line.c_str(), nullptr);
  if (!(ms > 0)) throw std::runtime_error("reference kernel: bad reply");
  return ms;
}

std::string pin_cpus(std::size_t n) {
  // The CPUs the process started with; later calls may pin differently.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
      throw std::runtime_error("sched_getaffinity failed");
    return set;
  }();
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string list;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && n > 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    list = std::to_string(cpu) + (list.empty() ? "" : ",") + list;
    --n;
  }
  if (sched_setaffinity(0, sizeof chosen, &chosen) != 0)
    throw std::runtime_error("sched_setaffinity failed");
  // On one CPU, glibc opens a second malloc arena only when a thread finds
  // the first locked because its holder was preempted: a timing accident.
  // Each arena keeps its own freed memory, so peak RSS of the same input
  // varied 22-32 MB between runs. One CPU allocates in no parallel anyway.
  mallopt(M_ARENA_MAX, CPU_COUNT(&chosen) == 1 ? 1 : 0);
  return list;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

Windows::Windows(HostRef& ref, std::size_t threads)
    : ref_(ref), threads_(std::clamp<std::size_t>(threads, 1, kMaxRefThreads)) {
  ref_ms_.push_back(ref_.run(threads_));
}

void Windows::open() {
  wall0_ = now_ms();
  cpu0_ = process_cpu_ms();
}

double Windows::close(std::size_t n_verdicts) {
  const double wall = now_ms() - wall0_;
  const double cpu = process_cpu_ms() - cpu0_;
  const double before = ref_ms_.back();
  ref_ms_.push_back(ref_.run(threads_));
  const double f = nominal() / ((before + ref_ms_.back()) / 2);
  factors_.push_back(f);
  raw_wall_ms += wall;
  wall_ms += wall * f;
  raw_cpu_ms += cpu;
  cpu_ms += cpu * f;
  verdicts += n_verdicts;
  return f;
}

Bracket::Bracket(HostRef& ref, std::size_t threads)
    : ref_(ref), threads_(std::clamp<std::size_t>(threads, 1, kMaxRefThreads)) {}

void Bracket::start() {
  before_ = ref_.run(threads_);
  t0_ = now_ms();
}

double Bracket::stop(double& corrected) {
  const double raw = now_ms() - t0_;
  const double after = ref_.run(threads_);
  corrected = raw * kRefNominalMs[threads_] / ((before_ + after) / 2);
  return raw;
}

}  // namespace perfbench
