// Resource governance for long-running analyses.
//
// Exhaustive state-space exploration explodes without warning on non-trivial
// models; the production stance (ROADMAP) is that a run is *bounded and
// interruptible with usable partial results*, never a hung CLI or a dead
// sweep pool. Three pieces implement that:
//
//   * RunBudget — the caller's resource envelope: a wall-clock deadline, an
//     approximate memory ceiling, and an optional CancelToken. A
//     default-constructed budget is unlimited, so existing callers pay
//     nothing. The state cap is the engine's own (ExploreOptions::max_states,
//     SymbolicOptions::max_classes).
//   * BudgetTracker — the hot-loop governor. check() is called once per
//     state expansion; it reads the cancel flag every call (one relaxed
//     atomic load) but polls the clock and the caller's memory estimator
//     only every kStride calls, so governance costs ~nothing on the BFS hot
//     path. Memory pressure is a *signal*, not a stop: the engine degrades
//     first (drops trace recording) and only gives up when pressure
//     persists after degradation.
//   * FaultInjector — deterministic fault injection so every bail-out path
//     is testable without timing races: armed programmatically or through
//     the AADLSCHED_FAULT environment variable, it trips the Nth budget
//     check (reporting a chosen StopReason), the Nth memory probe, or
//     throws from the Nth sweep job.
//
// Exploration that stops early reports a structured StopReason; the
// analyzer surfaces it as an explicit Inconclusive outcome (a capped run
// must never be read as "schedulable" — DESIGN.md §10).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string_view>

namespace aadlsched::util {

/// Why an analysis ended before exhausting the state space.
enum class StopReason : std::uint8_t {
  None,          // ran to completion (or to a conclusive deadlock)
  MaxStates,     // state cap reached
  Deadline,      // wall-clock deadline expired
  MemoryBudget,  // memory ceiling exceeded (after degradation)
  Cancelled,     // CancelToken flipped (e.g. SIGINT)
  Fault,         // injected or internal fault tripped the bail-out path
};

std::string_view to_string(StopReason r);

/// Cooperative cancellation flag, safe to flip from a signal handler or
/// another thread. Observed (not owned) by RunBudget.
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { flag_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Resource envelope for one analysis run. Zero means "unlimited" for every
/// numeric field, so a default RunBudget changes nothing.
struct RunBudget {
  double deadline_ms = 0;          // wall-clock limit for the run
  std::uint64_t memory_bytes = 0;  // approximate memory ceiling
  CancelToken* cancel = nullptr;   // observed, not owned; may be null

  bool unlimited() const noexcept {
    return deadline_ms <= 0 && memory_bytes == 0 && cancel == nullptr;
  }
};

/// Deterministic fault injection. One global instance (armed once from
/// $AADLSCHED_FAULT) plus local instances for tests. Counters are atomic
/// because the global instance is probed from every Service worker and
/// parallel_sweep thread at once; exactly which thread observes the Nth
/// check depends on scheduling, but *some* check trips, so every bail-out
/// path is reachable on demand.
class FaultInjector {
 public:
  enum class Site : std::uint8_t {
    None,
    BudgetCheck,  // a BudgetTracker budget check reports `reason`
    MemoryProbe,  // a memory probe reports pressure regardless of usage
    Job,          // a parallel_sweep job throws InjectedFault on entry
    // Filesystem sites (DESIGN.md §15): every disk I/O the server performs
    // can be made to fail deterministically, so the crash-safety of the
    // shared on-disk cache is testable without real disk damage. A tripped
    // write site abandons the tmp file mid-write (the torn-file case a
    // kill -9 produces); a tripped read site reports the read failed; a
    // tripped gc.remove leaves the file in place.
    CacheWrite,   // result store: writing the tmp file fails partway
    CacheRename,  // result store: the tmp -> final rename fails
    CacheRead,    // result store: reading a disk entry fails
    GcRemove,     // GC/eviction: fs::remove fails
  };

  FaultInjector() = default;

  /// Arm from a spec string "site:nth[:reason[:count]]", e.g.
  ///   budget-check:5:deadline     — 5th budget check reports Deadline
  ///   memory-probe:1              — first memory probe reports pressure
  ///   memory-probe:1:fault:1000   — pressure persists for 1000 probes
  ///   job:2                       — 2nd sweep job throws
  ///   cache.rename:1:fault:1000   — every result-store rename fails
  ///   cache.read:2                — 2nd result-store disk read fails
  /// Empty spec disarms. Returns false (and disarms) on a malformed spec.
  bool arm(std::string_view spec);
  /// Arm programmatically: trip `count` consecutive probes starting with
  /// the nth (1-based) at `site`.
  void arm(Site site, std::uint64_t nth,
           StopReason reason = StopReason::Fault, std::uint64_t count = 1);
  void disarm();
  bool armed() const { return site_ != Site::None; }
  /// Probes of the armed site since arm(), tripped or not. Armed to trip
  /// at a probe that never comes, a site counts its calls.
  std::uint64_t probes() const {
    return calls_.load(std::memory_order_relaxed);
  }

  /// Budget-check hook: returns the reason to fake, or StopReason::None.
  StopReason trip_budget_check() noexcept;
  /// Memory-probe hook: true = report pressure.
  bool trip_memory_probe() noexcept;
  /// Sweep-job hook: throws InjectedFault when tripping.
  void maybe_throw_job();
  /// Filesystem hook: true = the I/O at `site` must fail. `site` must be
  /// one of the filesystem sites; counting is shared with every other site
  /// kind (one armed site per injector, like the other hooks).
  bool trip_io(Site site) noexcept { return hit(site); }

  /// Process-wide instance; arms itself from $AADLSCHED_FAULT on first use.
  static FaultInjector& global();

 private:
  bool hit(Site site) noexcept;

  Site site_ = Site::None;
  std::uint64_t nth_ = 0;    // 1-based index of the first tripping probe
  std::uint64_t count_ = 1;  // how many consecutive probes trip
  StopReason reason_ = StopReason::Fault;
  std::atomic<std::uint64_t> calls_{0};
};

/// Thrown by FaultInjector at Site::Job (and catchable like any job error
/// by the sweep isolation layer).
struct InjectedFault : std::runtime_error {
  InjectedFault() : std::runtime_error("injected fault (AADLSCHED_FAULT)") {}
};

enum class BudgetSignal : std::uint8_t {
  Proceed,         // within budget
  MemoryPressure,  // over the memory ceiling: degrade if possible
  Stop,            // out of budget: bail out with `reason`
};

struct BudgetStatus {
  BudgetSignal signal = BudgetSignal::Proceed;
  StopReason reason = StopReason::None;
};

/// Per-run governor. Single-threaded: owned by the exploration loop.
class BudgetTracker {
 public:
  /// `memory_fn` estimates current footprint in bytes (sampled only on
  /// strided polls); may be empty when no ceiling is set.
  using MemoryFn = std::function<std::uint64_t()>;

  explicit BudgetTracker(const RunBudget& budget, MemoryFn memory_fn = {},
                         FaultInjector* injector = &FaultInjector::global());

  /// Hot-path check, call once per expansion. Cancel is checked every call;
  /// clock/memory every kStride calls (and on the first).
  BudgetStatus check();
  /// Poll from inside one state expansion (the Par3 fold, every few
  /// thousand partials): cancel, clock and memory, same signals as check().
  /// It is not a budget check for the FaultInjector, so fault specs count
  /// the same checks whatever the models' fan sizes.
  BudgetStatus check_mid_expansion();

  /// The engine degraded (dropped trace recording); the next sustained
  /// memory-pressure signal becomes a Stop instead of another degradation.
  void note_degraded() { degraded_ = true; }
  bool degraded() const { return degraded_; }

  double elapsed_ms() const;
  std::uint64_t last_memory_bytes() const { return last_memory_; }

  static constexpr std::uint64_t kStride = 256;

 private:
  BudgetStatus full_check();
  /// Clock, then memory; a memory probe `injector` faults reads as over
  /// the ceiling.
  BudgetStatus limits(FaultInjector* injector);

  RunBudget budget_;
  MemoryFn memory_fn_;
  FaultInjector* injector_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point deadline_{};
  std::uint64_t calls_ = 0;
  std::uint64_t last_memory_ = 0;
  bool degraded_ = false;
};

}  // namespace aadlsched::util
