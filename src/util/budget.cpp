#include "util/budget.hpp"

#include <cstdlib>
#include <optional>

#include "util/string_utils.hpp"

namespace aadlsched::util {

namespace {

using Clock = std::chrono::steady_clock;

std::optional<FaultInjector::Site> parse_site(std::string_view s) {
  if (s == "budget-check") return FaultInjector::Site::BudgetCheck;
  if (s == "memory-probe") return FaultInjector::Site::MemoryProbe;
  if (s == "job") return FaultInjector::Site::Job;
  if (s == "cache.write") return FaultInjector::Site::CacheWrite;
  if (s == "cache.rename") return FaultInjector::Site::CacheRename;
  if (s == "cache.read") return FaultInjector::Site::CacheRead;
  if (s == "gc.remove") return FaultInjector::Site::GcRemove;
  return std::nullopt;
}

std::optional<StopReason> parse_reason(std::string_view s) {
  if (s == "max-states") return StopReason::MaxStates;
  if (s == "deadline") return StopReason::Deadline;
  if (s == "memory") return StopReason::MemoryBudget;
  if (s == "cancelled") return StopReason::Cancelled;
  if (s == "fault") return StopReason::Fault;
  return std::nullopt;
}

}  // namespace

std::string_view to_string(StopReason r) {
  switch (r) {
    case StopReason::None: return "none";
    case StopReason::MaxStates: return "max-states";
    case StopReason::Deadline: return "deadline";
    case StopReason::MemoryBudget: return "memory-budget";
    case StopReason::Cancelled: return "cancelled";
    case StopReason::Fault: return "fault";
  }
  return "?";
}

bool FaultInjector::arm(std::string_view spec) {
  disarm();
  if (spec.empty()) return true;

  // Split "site:nth[:reason[:count]]" on ':'.
  std::string_view parts[4];
  std::size_t n = 0;
  while (n < 4) {
    const std::size_t colon = spec.find(':');
    parts[n++] = spec.substr(0, colon);
    if (colon == std::string_view::npos) break;
    spec.remove_prefix(colon + 1);
  }
  if (n < 2) return false;

  const auto site = parse_site(parts[0]);
  const auto nth = parse_int64(parts[1]);
  if (!site || !nth || *nth < 1) return false;
  StopReason reason = StopReason::Fault;
  std::uint64_t count = 1;
  if (n >= 3) {
    const auto r = parse_reason(parts[2]);
    if (!r) return false;
    reason = *r;
  }
  if (n >= 4) {
    const auto c = parse_int64(parts[3]);
    if (!c || *c < 1) return false;
    count = static_cast<std::uint64_t>(*c);
  }
  arm(*site, static_cast<std::uint64_t>(*nth), reason, count);
  return true;
}

void FaultInjector::arm(Site site, std::uint64_t nth, StopReason reason,
                        std::uint64_t count) {
  site_ = site;
  nth_ = nth;
  reason_ = reason;
  count_ = count;
  calls_.store(0, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  site_ = Site::None;
  nth_ = 0;
  count_ = 1;
  reason_ = StopReason::Fault;
  calls_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::hit(Site site) noexcept {
  if (site_ != site) return false;
  const std::uint64_t k = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  return k >= nth_ && k < nth_ + count_;
}

StopReason FaultInjector::trip_budget_check() noexcept {
  return hit(Site::BudgetCheck) ? reason_ : StopReason::None;
}

bool FaultInjector::trip_memory_probe() noexcept {
  return hit(Site::MemoryProbe);
}

void FaultInjector::maybe_throw_job() {
  if (hit(Site::Job)) throw InjectedFault{};
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* instance = [] {
    auto* fi = new FaultInjector;  // leaked intentionally (process-lifetime)
    if (const char* spec = std::getenv("AADLSCHED_FAULT")) fi->arm(spec);
    return fi;
  }();
  return *instance;
}

BudgetTracker::BudgetTracker(const RunBudget& budget, MemoryFn memory_fn,
                             FaultInjector* injector)
    : budget_(budget),
      memory_fn_(std::move(memory_fn)),
      injector_(injector),
      start_(Clock::now()) {
  if (budget_.deadline_ms > 0)
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 budget_.deadline_ms));
}

double BudgetTracker::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - start_)
      .count();
}

BudgetStatus BudgetTracker::check() {
  // Cancellation must be prompt: one relaxed load per expansion.
  if (budget_.cancel && budget_.cancel->cancelled())
    return {BudgetSignal::Stop, StopReason::Cancelled};
  if (++calls_ % kStride != 1) return {};
  return full_check();
}

BudgetStatus BudgetTracker::full_check() {
  if (injector_) {
    const StopReason injected = injector_->trip_budget_check();
    if (injected != StopReason::None) {
      // Injected memory pressure goes through the degradation path like the
      // real thing; everything else is a hard stop.
      if (injected == StopReason::MemoryBudget && !degraded_)
        return {BudgetSignal::MemoryPressure, StopReason::MemoryBudget};
      return {BudgetSignal::Stop, injected};
    }
  }
  return limits(injector_);
}

BudgetStatus BudgetTracker::check_mid_expansion() {
  if (budget_.cancel && budget_.cancel->cancelled())
    return {BudgetSignal::Stop, StopReason::Cancelled};
  return limits(nullptr);
}

BudgetStatus BudgetTracker::limits(FaultInjector* injector) {
  if (budget_.deadline_ms > 0 && Clock::now() >= deadline_)
    return {BudgetSignal::Stop, StopReason::Deadline};
  const bool probe_faulted =
      injector != nullptr && injector->trip_memory_probe();
  if (budget_.memory_bytes != 0 || probe_faulted) {
    if (memory_fn_) last_memory_ = memory_fn_();
    const bool over = probe_faulted ||
                      (budget_.memory_bytes != 0 &&
                       last_memory_ > budget_.memory_bytes);
    if (over)
      return {degraded_ ? BudgetSignal::Stop : BudgetSignal::MemoryPressure,
              StopReason::MemoryBudget};
  }
  return {};
}

}  // namespace aadlsched::util
