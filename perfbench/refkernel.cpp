// Host-reference kernel: a fixed amount of hash-table and sort work whose
// run time tracks how fast this host is right now.
//
// perfbench starts this program once and keeps it as a child process. Each
// line "<threads>" on stdin runs the kernel on that many threads at once,
// each thread timing its own copy from the common start. The reply is one
// line: the harmonic mean of those times in milliseconds, the time each
// copy would take if the threads shared the work the way the workloads'
// worker pools do (a thread that finishes early takes more of it). EOF on
// stdin ends the program.
//
// The kernel links no aadlsched library and is built with fixed flags, so
// no change to the analyzer can change its speed; it lives in its own
// process so its memory never shows in the benchmark's peak RSS.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr std::size_t kInserts = 1u << 16;  // hash-table entries
constexpr std::size_t kLookups = 1u << 17;  // half hit, half miss
constexpr std::size_t kSorted = 1u << 18;   // 2 MiB of keys to sort

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Returns a checksum so the work cannot be optimized away.
std::uint64_t kernel() {
  std::uint64_t s = 0x5eed;
  std::unordered_map<std::uint64_t, std::uint32_t> table;
  for (std::size_t i = 0; i < kInserts; ++i)
    table.emplace(splitmix(s), static_cast<std::uint32_t>(i));
  std::uint64_t found = 0;
  std::uint64_t probe = 0x5eed;
  for (std::size_t i = 0; i < kLookups; ++i) {
    // Even probes replay the insert sequence (hits), odd ones are fresh.
    const std::uint64_t key =
        (i & 1) ? splitmix(s) : splitmix(probe);
    found += table.count(key);
  }
  std::vector<std::uint64_t> keys(kSorted);
  for (auto& k : keys) k = splitmix(s);
  std::sort(keys.begin(), keys.end());
  return found + keys[kSorted / 2];
}

}  // namespace

int main() {
  std::string line;
  std::uint64_t sink = 0;
  while (std::getline(std::cin, line)) {
    const int threads = std::clamp(std::atoi(line.c_str()), 1, 64);
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
    std::vector<double> ms(static_cast<std::size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::jthread> pool;
      for (int t = 0; t < threads; ++t)
        pool.emplace_back([&sums, &ms, t0, t] {
          sums[t] = kernel();
          ms[t] = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        });
    }
    double rate = 0;
    for (int t = 0; t < threads; ++t) {
      sink += sums[t];
      rate += 1 / ms[t];
    }
    std::printf("%.6f %llu\n", threads / rate,
                static_cast<unsigned long long>(sink & 0xffff));
    std::fflush(stdout);
  }
  return 0;
}
