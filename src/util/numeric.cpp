#include "util/numeric.hpp"

namespace aadlsched::util {

void ExactUtilization::add(std::int64_t wcet, std::int64_t period) {
  constexpr __int128 kCap = __int128{1} << 60;
  if (overflow_ || period <= 0) return;
  // den_ <= 2^60 / period keeps den_ * period within the cap; num_ * period
  // and wcet * den_ stay below 2^123.
  if (den_ > kCap / period) {
    overflow_ = true;
    return;
  }
  num_ = num_ * period + __int128{wcet} * den_;
  den_ *= period;
  if (const __int128 g = gcd128(num_, den_); g > 1) {
    num_ /= g;
    den_ /= g;
  }
  overflow_ = num_ > kCap || num_ < -kCap;
}

std::optional<int> ExactUtilization::vs_one() const {
  if (overflow_) return std::nullopt;
  return (num_ > den_) - (num_ < den_);
}

std::optional<std::int64_t> checked_lcm(std::int64_t a, std::int64_t b) {
  if (a == 0 || b == 0) return 0;
  const std::int64_t g = gcd64(a, b);
  const std::int64_t a_over_g = a / g;
  std::int64_t result = 0;
  if (__builtin_mul_overflow(a_over_g, b, &result)) return std::nullopt;
  return result < 0 ? -result : result;
}

std::optional<std::int64_t> hyperperiod(
    std::span<const std::int64_t> periods) {
  if (periods.empty()) return std::nullopt;
  std::int64_t acc = 1;
  for (std::int64_t p : periods) {
    auto l = checked_lcm(acc, p);
    if (!l) return std::nullopt;
    acc = *l;
  }
  return acc;
}

}  // namespace aadlsched::util
