// Resource governance: budgets, cooperative cancellation, graceful
// degradation, sweep isolation — and deterministic fault injection proving
// every StopReason bail-out path actually fires (DESIGN.md §10).
//
// The tests that arm util::FaultInjector::global() do so through an RAII
// guard: the explorers consult the global injector, so leaking an armed
// site would poison unrelated tests in this binary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "core/taskset_aadl.hpp"
#include "sched/workload.hpp"
#include "translate/translator.hpp"
#include "util/budget.hpp"
#include "versa/explorer.hpp"
#include "versa/sweep.hpp"

using namespace aadlsched;
using util::BudgetSignal;
using util::BudgetStatus;
using util::BudgetTracker;
using util::CancelToken;
using util::FaultInjector;
using util::RunBudget;
using util::StopReason;
using versa::ExploreOptions;
using versa::ExploreResult;

namespace {

/// Disarms the process-global injector on scope exit, no matter how the
/// test ends.
struct InjectorGuard {
  InjectorGuard() { FaultInjector::global().disarm(); }
  ~InjectorGuard() { FaultInjector::global().disarm(); }
};

std::string read_model(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  EXPECT_TRUE(in) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

acsr::TermId build_initial(acsr::Context& ctx, const std::string& src,
                           std::string_view root, std::int64_t quantum_ns) {
  util::DiagnosticEngine diags("test.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, src, diags)) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  auto inst = aadl::instantiate(model, root, diags);
  if (!inst || diags.has_errors()) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  translate::TranslateOptions topts;
  topts.quantum_ns = quantum_ns;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) {
    ADD_FAILURE() << diags.render_all();
    return acsr::kNil;
  }
  return tr->initial;
}

ExploreResult explore_storm(const ExploreOptions& opts) {
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  return versa::explore(
      sem, build_initial(ctx, read_model("storm.aadl"), "Storm.impl",
                         1'000'000),
      opts);
}

/// A small overloaded task set: exploration finds a deadline violation
/// (deadlock) quickly, so trace-recording behaviour is observable.
std::string overloaded_src() {
  sched::WorkloadSpec spec;
  spec.task_count = 3;
  spec.total_utilization = 1.15;
  spec.periods = {3, 4, 5, 6};
  sched::TaskSet ts = sched::generate_workload(spec, 11);
  sched::assign_rate_monotonic(ts);
  return core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority);
}

// ---------------------------------------------------------------------------
// Unit level: CancelToken, RunBudget, FaultInjector, BudgetTracker.

TEST(Budget, StopReasonNames) {
  EXPECT_EQ(util::to_string(StopReason::None), "none");
  EXPECT_EQ(util::to_string(StopReason::MaxStates), "max-states");
  EXPECT_EQ(util::to_string(StopReason::Deadline), "deadline");
  EXPECT_EQ(util::to_string(StopReason::MemoryBudget), "memory-budget");
  EXPECT_EQ(util::to_string(StopReason::Cancelled), "cancelled");
  EXPECT_EQ(util::to_string(StopReason::Fault), "fault");
}

TEST(Budget, CancelTokenAndUnlimited) {
  CancelToken tok;
  EXPECT_FALSE(tok.cancelled());
  tok.cancel();
  EXPECT_TRUE(tok.cancelled());
  tok.reset();
  EXPECT_FALSE(tok.cancelled());

  EXPECT_TRUE(RunBudget{}.unlimited());
  RunBudget b;
  b.deadline_ms = 1;
  EXPECT_FALSE(b.unlimited());
  b = RunBudget{};
  b.cancel = &tok;
  EXPECT_FALSE(b.unlimited());
}

TEST(Budget, FaultInjectorSpecParsing) {
  FaultInjector fi;
  EXPECT_TRUE(fi.arm("budget-check:3:deadline"));
  EXPECT_TRUE(fi.armed());
  EXPECT_EQ(fi.trip_budget_check(), StopReason::None);  // 1st
  EXPECT_EQ(fi.trip_budget_check(), StopReason::None);  // 2nd
  EXPECT_EQ(fi.trip_budget_check(), StopReason::Deadline);  // 3rd trips
  EXPECT_EQ(fi.trip_budget_check(), StopReason::None);  // count=1: one-shot

  EXPECT_TRUE(fi.arm("memory-probe:2:fault:3"));
  EXPECT_FALSE(fi.trip_memory_probe());  // 1st
  EXPECT_TRUE(fi.trip_memory_probe());   // 2nd..4th trip
  EXPECT_TRUE(fi.trip_memory_probe());
  EXPECT_TRUE(fi.trip_memory_probe());
  EXPECT_FALSE(fi.trip_memory_probe());  // window closed

  EXPECT_TRUE(fi.arm("job:1"));
  EXPECT_THROW(fi.maybe_throw_job(), util::InjectedFault);
  EXPECT_NO_THROW(fi.maybe_throw_job());

  EXPECT_TRUE(fi.arm(""));  // empty spec disarms
  EXPECT_FALSE(fi.armed());

  EXPECT_FALSE(fi.arm("bogus-site:1"));
  EXPECT_FALSE(fi.arm("budget-check"));          // missing nth
  EXPECT_FALSE(fi.arm("budget-check:0"));        // nth must be >= 1
  EXPECT_FALSE(fi.arm("budget-check:x"));        // garbage nth
  EXPECT_FALSE(fi.arm("budget-check:1:nope"));   // unknown reason
  EXPECT_FALSE(fi.arm("budget-check:1:fault:0"));  // count must be >= 1
  EXPECT_FALSE(fi.armed());  // malformed spec leaves it disarmed
}

TEST(Budget, FaultInjectorFilesystemSites) {
  using Site = FaultInjector::Site;
  FaultInjector fi;

  // Every filesystem site name parses, and trip_io honors nth/count.
  EXPECT_TRUE(fi.arm("cache.write:2"));
  EXPECT_FALSE(fi.trip_io(Site::CacheWrite));  // 1st
  EXPECT_TRUE(fi.trip_io(Site::CacheWrite));   // 2nd trips
  EXPECT_FALSE(fi.trip_io(Site::CacheWrite));  // one-shot by default

  EXPECT_TRUE(fi.arm("cache.rename:1:fault:1000"));  // persistent window
  EXPECT_TRUE(fi.trip_io(Site::CacheRename));
  EXPECT_TRUE(fi.trip_io(Site::CacheRename));

  // A probe at a different site never trips and never consumes the count.
  EXPECT_TRUE(fi.arm("cache.read:1"));
  EXPECT_FALSE(fi.trip_io(Site::CacheWrite));
  EXPECT_FALSE(fi.trip_io(Site::GcRemove));
  EXPECT_TRUE(fi.trip_io(Site::CacheRead));

  EXPECT_TRUE(fi.arm("gc.remove:2"));
  EXPECT_FALSE(fi.trip_io(Site::CacheRename));
  EXPECT_FALSE(fi.trip_io(Site::GcRemove));
  EXPECT_TRUE(fi.trip_io(Site::GcRemove));

  EXPECT_FALSE(fi.arm("cache.write"));   // missing nth, like other sites
  EXPECT_FALSE(fi.arm("gc.remove:0"));   // nth must be >= 1
}

TEST(Budget, TrackerCancel) {
  CancelToken tok;
  RunBudget b;
  b.cancel = &tok;
  BudgetTracker tracker(b, {}, nullptr);
  EXPECT_EQ(tracker.check().signal, BudgetSignal::Proceed);

  tok.cancel();
  const BudgetStatus cancelled = tracker.check();
  EXPECT_EQ(cancelled.signal, BudgetSignal::Stop);
  EXPECT_EQ(cancelled.reason, StopReason::Cancelled);
}

TEST(Budget, TrackerDeadline) {
  RunBudget b;
  b.deadline_ms = 0.5;
  BudgetTracker tracker(b, {}, nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // The first check() is a full one (clock and memory).
  const BudgetStatus st = tracker.check();
  EXPECT_EQ(st.signal, BudgetSignal::Stop);
  EXPECT_EQ(st.reason, StopReason::Deadline);
  EXPECT_GT(tracker.elapsed_ms(), 0.0);
}

TEST(Budget, TrackerMemoryDegradesThenStops) {
  RunBudget b;
  b.memory_bytes = 100;
  BudgetTracker tracker(b, [] { return std::uint64_t{200}; }, nullptr);
  const BudgetStatus first = tracker.check();  // the first check is full
  EXPECT_EQ(first.signal, BudgetSignal::MemoryPressure);
  EXPECT_EQ(first.reason, StopReason::MemoryBudget);
  EXPECT_EQ(tracker.last_memory_bytes(), 200u);

  // The engine degrades (drops trace recording)...
  tracker.note_degraded();
  EXPECT_TRUE(tracker.degraded());
  // ...and sustained pressure afterwards is a hard stop, at the next full
  // check, kStride checks after the first.
  for (std::uint64_t i = 1; i < BudgetTracker::kStride; ++i)
    ASSERT_EQ(tracker.check().signal, BudgetSignal::Proceed);
  const BudgetStatus second = tracker.check();
  EXPECT_EQ(second.signal, BudgetSignal::Stop);
  EXPECT_EQ(second.reason, StopReason::MemoryBudget);
}

// ---------------------------------------------------------------------------
// Serial explorer: every StopReason path.

TEST(BudgetExplore, SerialMaxStates) {
  ExploreOptions opts;
  opts.max_states = 500;
  const ExploreResult r = explore_storm(opts);
  EXPECT_EQ(r.stop, StopReason::MaxStates);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.deadlock_found);
  // The check runs per expansion, so the cap can overshoot by at most one
  // state's fan-out.
  EXPECT_GE(r.states, 500u);
  EXPECT_LT(r.states, 600u);
  EXPECT_GT(r.depth, 0u);  // the partial verdict names a BFS depth
}

TEST(BudgetExplore, SerialDeadline) {
  ExploreOptions opts;
  opts.budget.deadline_ms = 25;
  const auto t0 = std::chrono::steady_clock::now();
  const ExploreResult r = explore_storm(opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.stop, StopReason::Deadline);
  EXPECT_FALSE(r.complete);
  EXPECT_GT(r.states, 0u);
  // Checks are strided (kStride expansions between clock polls) so allow
  // generous slack, but the run must not outlive the deadline by orders of
  // magnitude — storm.aadl alone takes seconds to explore.
  EXPECT_LT(wall_ms, 2'000.0);
}

TEST(BudgetExplore, SerialCancelled) {
  CancelToken tok;
  tok.cancel();  // cancelled before the run starts: promptest possible stop
  ExploreOptions opts;
  opts.budget.cancel = &tok;
  const ExploreResult r = explore_storm(opts);
  EXPECT_EQ(r.stop, StopReason::Cancelled);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.states, 1u);  // only the initial state was admitted
}

TEST(BudgetExplore, SerialInjectedFault) {
  InjectorGuard guard;
  FaultInjector::global().arm(FaultInjector::Site::BudgetCheck, 1);
  const ExploreResult r = explore_storm({});
  EXPECT_EQ(r.stop, StopReason::Fault);
  EXPECT_FALSE(r.complete);
}

TEST(BudgetExplore, SerialMemoryPressureDegradesAndRunCompletes) {
  // Baseline: the overloaded set deadlocks with a recorded counterexample.
  const std::string src = overloaded_src();
  acsr::Context c1;
  acsr::Semantics s1(c1);
  const ExploreResult base =
      versa::explore(s1, build_initial(c1, src, "Root.impl", 1'000'000), {});
  ASSERT_TRUE(base.deadlock_found);
  ASSERT_FALSE(base.trace.empty());

  // One transient memory-pressure signal: the engine must drop the trace,
  // keep going, and still find the same deadlock — degradation, not death.
  InjectorGuard guard;
  FaultInjector::global().arm(FaultInjector::Site::MemoryProbe, 1);
  acsr::Context c2;
  acsr::Semantics s2(c2);
  const ExploreResult r =
      versa::explore(s2, build_initial(c2, src, "Root.impl", 1'000'000), {});
  EXPECT_TRUE(r.trace_dropped);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_TRUE(r.deadlock_found);
  EXPECT_TRUE(r.complete);  // a found deadlock is conclusive
  EXPECT_EQ(r.stop, StopReason::None);
  EXPECT_EQ(r.states, base.states);
  EXPECT_EQ(r.transitions, base.transitions);
}

TEST(BudgetExplore, SerialPersistentMemoryPressureStops) {
  InjectorGuard guard;
  // Pressure that never lets up: degrade first, then give up for real.
  ASSERT_TRUE(FaultInjector::global().arm("memory-probe:1:memory:1000000"));
  const ExploreResult r = explore_storm({});
  EXPECT_EQ(r.stop, StopReason::MemoryBudget);
  EXPECT_TRUE(r.trace_dropped);  // it did try degrading before stopping
  EXPECT_FALSE(r.complete);
  EXPECT_GT(r.states, 0u);
}

TEST(BudgetExplore, GenerousBudgetsDoNotPerturbEquivalence) {
  // A budget nobody hits must leave the exploration exactly as an
  // unbudgeted run leaves it — governance is observation, not
  // interference.
  const std::string src = read_model("cruise_control.aadl");
  ExploreOptions free_run;
  ExploreOptions governed = free_run;
  governed.budget.deadline_ms = 600'000;
  governed.budget.memory_bytes = 8ull << 30;

  acsr::Context c1;
  acsr::Semantics s1(c1);
  const ExploreResult plain = versa::explore(
      s1, build_initial(c1, src, "CruiseControlSystem.impl", 10'000'000),
      free_run);
  acsr::Context c2;
  acsr::Semantics s2(c2);
  const ExploreResult budgeted = versa::explore(
      s2, build_initial(c2, src, "CruiseControlSystem.impl", 10'000'000),
      governed);

  EXPECT_EQ(budgeted.stop, StopReason::None);
  EXPECT_TRUE(plain.complete);
  EXPECT_TRUE(budgeted.complete);
  EXPECT_EQ(budgeted.states, plain.states);
  EXPECT_EQ(budgeted.transitions, plain.transitions);
  EXPECT_EQ(budgeted.deadlock_found, plain.deadlock_found);
  EXPECT_EQ(budgeted.peak_frontier, plain.peak_frontier);
  EXPECT_GT(budgeted.approx_memory_bytes, 0u);  // ceiling set => probed
}

TEST(BudgetExplore, MemoryEstimateIncludesSemanticsCaches) {
  // Regression for a real accounting gap: the memory probe used to count
  // the Context term table but not the Semantics-side caches (successor-fan
  // memo + transition arena), so a memo-heavy run under-reported by exactly
  // the cache that was growing and the budget tracker fired too late. The
  // probe must sit at or above Context + Semantics combined.
  const std::string src = read_model("cruise_control.aadl");
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  ExploreOptions opts;
  opts.max_states = 5'000;
  const ExploreResult r = versa::explore(
      sem, build_initial(ctx, src, "CruiseControlSystem.impl", 1'000'000),
      opts);
  ASSERT_GT(sem.stats().memo_hits, 0u);  // the memo did fill up
  EXPECT_GT(sem.approx_bytes(), 0u);
  EXPECT_GE(r.approx_memory_bytes,
            ctx.approx_bytes() + sem.approx_bytes());

  // A memo-free Semantics over the same space reports strictly less cache
  // footprint — approx_bytes() really is tracking the memo, not a constant.
  acsr::Context c2;
  acsr::Semantics bare(c2, false);
  versa::explore(bare,
                 build_initial(c2, src, "CruiseControlSystem.impl",
                               1'000'000),
                 opts);
  EXPECT_LT(bare.approx_bytes(), sem.approx_bytes());
}

// ---------------------------------------------------------------------------
// Budget inside one expansion: the Par3 fold of a single state can be
// exponential, so the labels-first fold polls the budget itself.

TEST(BudgetExplore, FoldAbandonsOnCancelAndRepeatsCleanly) {
  std::ifstream in(std::string(AADLSCHED_CORPUS_DIR) + "/../wide_fold.aadl");
  ASSERT_TRUE(in);
  std::ostringstream os;
  os << in.rdbuf();
  // Sixteen of the twenty threads keep the fold at 2^16 partials: drop
  // every line naming t16..t19 or their processors.
  std::string src;
  std::istringstream lines(os.str());
  for (std::string line; std::getline(lines, line);) {
    bool dropped = false;
    for (int t = 16; t < 20; ++t) {
      const std::string n = std::to_string(t);
      dropped |= line.find("t" + n) != std::string::npos ||
                 line.find("cpu" + n) != std::string::npos;
    }
    if (!dropped) src += line + "\n";
  }
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  // Walk the dispatch path to the first state whose fold is wide.
  acsr::TermId state = build_initial(ctx, src, "WideFold.impl", 1'000'000);
  std::vector<acsr::Transition> fan;
  for (int step = 0; step < 64; ++step) {
    const std::uint64_t before = sem.stats().candidates;
    ASSERT_TRUE(sem.prioritized(state, fan));
    if (sem.stats().candidates - before >= (1u << 16)) break;
    ASSERT_FALSE(fan.empty());
    state = fan.front().target;
  }
  const std::vector<acsr::Transition> whole = fan;
  ASSERT_EQ(whole.size(), 1u);  // everybody computes

  CancelToken tok;
  tok.cancel();
  RunBudget b;
  b.cancel = &tok;
  BudgetTracker tracker(b, {}, nullptr);
  sem.set_budget(&tracker);
  const acsr::Semantics::Stats before = sem.stats();
  EXPECT_FALSE(sem.prioritized(state, fan));
  EXPECT_TRUE(fan.empty());
  EXPECT_EQ(sem.interruption().signal, BudgetSignal::Stop);
  EXPECT_EQ(sem.interruption().reason, StopReason::Cancelled);
  EXPECT_EQ(sem.stats().candidates, before.candidates);  // nothing counted

  tok.reset();
  EXPECT_TRUE(sem.prioritized(state, fan));
  EXPECT_EQ(fan, whole);
  sem.set_budget(nullptr);
}

TEST(BudgetExplore, MemoryTripInsideFoldStopsAndRefoldsCleanly) {
  // Cruise control at 1 ms folds ~20k partial actions in one early state.
  // A ceiling just above the starting footprint is first exceeded inside
  // that fold: the explorer degrades, retries the state, trips again and
  // stops with that state unexpanded.
  const std::string src = read_model("cruise_control.aadl");
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  const acsr::TermId init =
      build_initial(ctx, src, "CruiseControlSystem.impl", 1'000'000);
  ExploreOptions opts;
  opts.budget.memory_bytes =
      ctx.approx_bytes() + sem.approx_bytes() + (256u << 10);
  const ExploreResult cut = versa::explore(sem, init, opts);
  EXPECT_EQ(cut.stop, StopReason::MemoryBudget);
  EXPECT_FALSE(cut.complete);
  EXPECT_TRUE(cut.trace_dropped);
  // The loop top samples memory on its 1st and 257th check only, so an
  // earlier stop came from inside an expansion.
  EXPECT_LT(cut.expanded, util::BudgetTracker::kStride);

  // An unbudgeted run over the same translation, with its own Semantics,
  // visits the whole space. BFS expands states in discovery order, so the
  // state whose fold tripped is the one after the `expanded` the cut run
  // finished.
  acsr::Semantics whole_sem(ctx);
  std::vector<acsr::TermId> order;
  ExploreOptions record;
  record.discovered = &order;
  const ExploreResult cold = versa::explore(whole_sem, init, record);
  EXPECT_TRUE(cold.complete);
  EXPECT_FALSE(cold.deadlock_found);
  EXPECT_LE(cut.states, cold.states);
  EXPECT_LE(cut.depth, cold.depth);
  ASSERT_LT(cut.expanded, order.size());

  // The abandoned fold left nothing behind: the tripped Semantics, its
  // budget detached, folds the state whole and agrees with the cold run.
  const acsr::TermId head = order[cut.expanded];
  std::vector<acsr::Transition> fan;
  const std::uint64_t before = sem.stats().candidates;
  ASSERT_TRUE(sem.prioritized(head, fan));
  EXPECT_GE(sem.stats().candidates - before,
            acsr::Semantics::kPollPartials);
  std::vector<acsr::Transition> expected;
  ASSERT_TRUE(whole_sem.prioritized(head, expected));
  EXPECT_EQ(fan, expected);
}

// ---------------------------------------------------------------------------
// Sweep isolation: one poisoned job must not kill the pool.

TEST(BudgetSweep, ThrowingJobBecomesFailureRecord) {
  std::atomic<int> ran{0};
  const versa::SweepReport report = versa::parallel_sweep(
      6,
      [&](std::size_t i) {
        if (i == 3) throw std::runtime_error("boom in job 3");
        ran.fetch_add(1);
      },
      2);
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(ran.load(), 5);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].job, 3u);
  EXPECT_NE(report.failures[0].error.find("boom in job 3"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST(BudgetSweep, InjectedJobFaultIsIsolated) {
  InjectorGuard guard;
  ASSERT_TRUE(FaultInjector::global().arm("job:2"));
  std::atomic<int> ran{0};
  // One worker => deterministic entry order: the second job trips.
  const versa::SweepReport report = versa::parallel_sweep(
      4, [&](std::size_t) { ran.fetch_add(1); }, 1);
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(ran.load(), 3);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].job, 1u);
  EXPECT_NE(report.failures[0].error.find("injected fault"),
            std::string::npos);
}

TEST(BudgetSweep, SurplusWorkersRunEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(5);
  const versa::SweepReport report = versa::parallel_sweep(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, hits.size());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(BudgetSweep, OneWorkerRunsEveryIndexInOrderOnOneThread) {
  std::vector<std::size_t> order;
  std::set<std::thread::id> threads;
  const versa::SweepReport report = versa::parallel_sweep(
      64,
      [&](std::size_t i) {
        order.push_back(i);
        threads.insert(std::this_thread::get_id());
      },
      1);
  EXPECT_EQ(report.completed, 64u);
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(threads.size(), 1u);
}

TEST(BudgetSweep, NoJobsRunNothing) {
  // min(workers, 0) threads: the sweep returns without starting any.
  bool ran = false;
  const versa::SweepReport report =
      versa::parallel_sweep(0, [&](std::size_t) { ran = true; }, 8);
  EXPECT_FALSE(ran);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 0u);
}

TEST(BudgetSweep, ThrowingJobsLeaveTheOthersRunning) {
  std::vector<std::atomic<int>> hits(40);
  const versa::SweepReport report = versa::parallel_sweep(
      hits.size(),
      [&](std::size_t i) {
        if (i % 10 == 0) throw 42;  // not a std::exception
        hits[i].fetch_add(1);
      },
      4);
  EXPECT_EQ(report.completed, 36u);
  ASSERT_EQ(report.failures.size(), 4u);
  for (std::size_t k = 0; k < report.failures.size(); ++k) {
    EXPECT_EQ(report.failures[k].job, 10 * k);  // sorted by job index
    EXPECT_EQ(report.failures[k].error, "unknown exception");
  }
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), i % 10 == 0 ? 0 : 1) << i;
}

TEST(BudgetSweep, NonThrowingSweepIsOk) {
  std::atomic<int> ran{0};
  const versa::SweepReport report =
      versa::parallel_sweep(5, [&](std::size_t) { ran.fetch_add(1); }, 2);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.completed, 5u);
  EXPECT_EQ(ran.load(), 5);
}

// ---------------------------------------------------------------------------
// Analyzer integration: truncated runs surface as Inconclusive, never as a
// schedulability verdict.

TEST(BudgetAnalyzer, CappedRunIsInconclusiveNotSchedulable) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.exploration.max_states = 200;
  const core::AnalysisResult r =
      core::analyze_source(read_model("storm.aadl"), "Storm.impl", opts);
  // The run produced a partial result, not a verdict.
  EXPECT_EQ(r.outcome, core::Outcome::Inconclusive);
  EXPECT_EQ(r.stop_reason, StopReason::MaxStates);
  EXPECT_GT(r.depth, 0u);
  const std::string summary = r.summary();
  EXPECT_NE(summary.find("INCONCLUSIVE"), std::string::npos) << summary;
  EXPECT_NE(summary.find("max-states"), std::string::npos) << summary;
  EXPECT_NE(summary.find("not a verdict"), std::string::npos) << summary;
}

TEST(BudgetAnalyzer, DeadlockOnTruncatedRunStaysConclusive) {
  // A found deadlock stops the run: conclusive NotSchedulable even though
  // the space was not exhausted.
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  const core::AnalysisResult r =
      core::analyze_source(overloaded_src(), "Root.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  EXPECT_NE(r.summary().find("NOT SCHEDULABLE"), std::string::npos)
      << r.summary();
}

TEST(BudgetAnalyzer, TraceDroppedIsReportedInSummary) {
  InjectorGuard guard;
  FaultInjector::global().arm(FaultInjector::Site::MemoryProbe, 1);
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  const core::AnalysisResult r =
      core::analyze_source(overloaded_src(), "Root.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error);
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  EXPECT_TRUE(r.trace_dropped);
  EXPECT_FALSE(r.scenario.has_value());  // no timeline without a trace
  EXPECT_NE(r.summary().find("trace dropped"), std::string::npos)
      << r.summary();
}

// The canonical JSON of every outcome, byte for byte (explore_ms masked).
// `schedulable` and `exhaustive` are rendered from the outcome; these bytes
// pin them on the outcomes the explore goldens never reach: an Inconclusive
// run, a front-end Error and a symbolic-engine Fault.
TEST(BudgetAnalyzer, CanonicalJsonOfEveryOutcomeIsPinned) {
  const auto masked = [](const core::AnalysisResult& r) {
    std::string json = core::render_result_json(r);
    const std::string key = "\"explore_ms\": ";
    const auto pos = json.find(key) + key.size();
    json.replace(pos, json.find(',', pos) - pos, "X");
    return json;
  };
  core::AnalyzerOptions ms10;
  ms10.translation.quantum_ns = 10'000'000;
  core::AnalyzerOptions ms1;
  ms1.translation.quantum_ns = 1'000'000;
  core::AnalyzerOptions capped = ms1;
  capped.exploration.max_states = 200;
  core::AnalyzerOptions symbolic;
  symbolic.engine = core::Engine::Symbolic;

  EXPECT_EQ(masked(core::analyze_source(read_model("cruise_control.aadl"),
                                        "CruiseControlSystem.impl", ms10)),
            R"({"schema_version": 1, "outcome": "schedulable")"
            R"(, "stop_reason": "none", "engine": "enumerative")"
            R"(, "schedulable": true, "exhaustive": true, "states": 197)"
            R"(, "transitions": 255, "depth": 28, "trace_dropped": false)"
            R"(, "explore_ms": X, "peak_frontier": 26})");
  EXPECT_EQ(masked(core::analyze_source(overloaded_src(), "Root.impl", ms1)),
            R"({"schema_version": 1, "outcome": "not-schedulable")"
            R"(, "stop_reason": "none", "engine": "enumerative")"
            R"(, "schedulable": false, "exhaustive": true, "states": 12)"
            R"(, "transitions": 11, "depth": 11, "trace_dropped": false)"
            R"(, "explore_ms": X, "peak_frontier": 1})");
  EXPECT_EQ(masked(core::analyze_source(read_model("storm.aadl"),
                                        "Storm.impl", capped)),
            R"({"schema_version": 1, "outcome": "inconclusive")"
            R"(, "stop_reason": "max-states", "engine": "enumerative")"
            R"(, "schedulable": false, "exhaustive": false, "states": 200)"
            R"(, "transitions": 210, "depth": 82, "trace_dropped": false)"
            R"(, "explore_ms": X, "peak_frontier": 6})");
  EXPECT_EQ(masked(core::analyze_source("package P public end Q;",
                                        "Root.impl", ms1)),
            R"({"schema_version": 1, "outcome": "error")"
            R"(, "stop_reason": "none", "engine": "enumerative")"
            R"(, "schedulable": false, "exhaustive": false, "states": 0)"
            R"(, "transitions": 0, "depth": 0, "trace_dropped": false)"
            R"(, "explore_ms": X, "peak_frontier": 0)"
            R"(, "error": "<aadl>: error: root implementation )"
            R"('Root.impl' not found\n"})");
  InjectorGuard guard;
  FaultInjector::global().arm(FaultInjector::Site::BudgetCheck, 1);
  EXPECT_EQ(masked(core::analyze_source(read_model("slow_periodic.aadl"),
                                        "SlowPeriodic.impl", symbolic)),
            R"({"schema_version": 1, "outcome": "error")"
            R"(, "stop_reason": "none", "engine": "symbolic")"
            R"(, "schedulable": false, "exhaustive": false, "states": 1)"
            R"(, "transitions": 0, "depth": 0, "trace_dropped": false)"
            R"(, "explore_ms": X, "peak_frontier": 1, "error": ""})");
}

}  // namespace
