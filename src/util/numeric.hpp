// Integer helpers for timing arithmetic (hyperperiods, ceilings). All task
// timing in this codebase is in integral scheduling quanta (the paper's
// discrete-time assumption, §4.1), so everything here is exact.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

namespace aadlsched::util {

constexpr std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  while (b != 0) {
    std::int64_t t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

/// gcd over 128 bits, for exact sums of ratios whose denominators are
/// products of 64-bit periods.
constexpr __int128 gcd128(__int128 a, __int128 b) {
  while (b != 0) {
    const __int128 t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

/// Exact sum of wcet/period ratios compared with 1, for the utilization
/// tests of sched and lint: a double sum rounds exact-U = 1 sets such as
/// C = 1, T = {20,10,4,8,20,8,5,10} to 1.0000000000000002. The reduced
/// fraction stays within 2^60, so no product with a 64-bit operand leaves
/// 128 bits; a sum that outgrows the cap gives up.
class ExactUtilization {
 public:
  /// Add wcet/period; a non-positive period adds nothing.
  void add(std::int64_t wcet, std::int64_t period);
  /// Sign of (sum - 1) as -1/0/+1; nullopt once the sum outgrew the cap.
  std::optional<int> vs_one() const;

 private:
  __int128 num_ = 0;
  __int128 den_ = 1;
  bool overflow_ = false;
};

/// lcm that reports overflow instead of wrapping; nullopt on overflow.
std::optional<std::int64_t> checked_lcm(std::int64_t a, std::int64_t b);

/// Hyperperiod (lcm) of a set of periods; nullopt on overflow or empty set.
std::optional<std::int64_t> hyperperiod(std::span<const std::int64_t> periods);

/// ceil(a / b) for positive b.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

}  // namespace aadlsched::util
