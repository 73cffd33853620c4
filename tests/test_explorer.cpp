// Tests for the VERSA-analogue explorer: reachability, deadlock detection,
// shortest-counterexample traces, state inspection, and a hand-built
// schedulability example (deadlock <=> overload).
#include <gtest/gtest.h>

#include "acsr/builder.hpp"
#include "acsr/semantics.hpp"
#include "versa/explorer.hpp"
#include "versa/inspection.hpp"
#include "versa/sweep.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;
using namespace aadlsched::versa;

namespace {

/// Hand-built periodic task: executes C quanta within every period of T
/// quanta at fixed cpu priority `prio`; misses (no transition) if the work
/// does not fit. Parameters: e = executed quanta, t = elapsed in period.
void define_task(Builder& b, const std::string& name, int C, int T,
                 int prio) {
  // e < C, t < T-1 : run or be preempted
  // e == C, t < T-1: idle out the period
  // t == T-1       : last quantum; must reach e == C by the step's end
  const auto e = b.p(0), t = b.p(1);
  std::vector<OpenTermId> alts;
  // run (possible whenever e < C):
  alts.push_back(b.when(
      b.both(b.lt(e, b.c(C)), b.lt(t, b.c(T - 1))),
      b.act({{"cpu", b.c(prio)}},
            b.call(name, {b.add(e, b.c(1)), b.add(t, b.c(1))}))));
  // run in the final quantum only if it completes the job:
  alts.push_back(b.when(
      b.both(b.eq(e, b.c(C - 1)), b.eq(t, b.c(T - 1))),
      b.act({{"cpu", b.c(prio)}}, b.call(name, {b.c(0), b.c(0)}))));
  // preempted (e < C): lose the quantum
  alts.push_back(b.when(b.both(b.lt(e, b.c(C)), b.lt(t, b.c(T - 1))),
                        b.idle(b.call(name, {e, b.add(t, b.c(1))}))));
  // done, wait for next period
  alts.push_back(b.when(b.both(b.eq(e, b.c(C)), b.lt(t, b.c(T - 1))),
                        b.idle(b.call(name, {e, b.add(t, b.c(1))}))));
  alts.push_back(b.when(b.both(b.eq(e, b.c(C)), b.eq(t, b.c(T - 1))),
                        b.idle(b.call(name, {b.c(0), b.c(0)}))));
  b.def(name, {"e", "t"}, b.pick(std::move(alts)), DefRole::ThreadState,
        "sys." + name, "Compute");
}

TEST(Explorer, SingleIdlingStateIsComplete) {
  Context ctx;
  Builder b(ctx);
  b.def("P", {}, b.idle(b.call("P")));
  Semantics sem(ctx);
  const auto r = explore(sem, b.start("P"));
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock_found);
  EXPECT_EQ(r.states, 1u);
  EXPECT_TRUE(r.schedulable());
}

TEST(Explorer, ImmediateDeadlockDetected) {
  Context ctx;
  Semantics sem(ctx);
  const auto r = explore(sem, kNil);
  EXPECT_TRUE(r.deadlock_found);
  EXPECT_EQ(r.first_deadlock, kNil);
  EXPECT_TRUE(r.trace.empty());  // the initial state itself is dead
  EXPECT_FALSE(r.schedulable());
}

TEST(Explorer, TraceIsShortestPathToDeadlock) {
  Context ctx;
  Builder b(ctx);
  // Two routes to NIL: a 3-step one and a 1-step one; BFS must report 1.
  b.def("Long", {}, b.idle(b.idle(b.idle(b.nil()))));
  b.def("Short", {}, b.send("bang", b.c(1), b.nil()));
  b.def("Race", {}, b.pick({b.call("Long"), b.call("Short")}));
  Semantics sem(ctx);
  const auto r = explore(sem, b.start("Race"));
  ASSERT_TRUE(r.deadlock_found);
  EXPECT_EQ(r.trace.size(), 1u);
}

TEST(Explorer, MaxStatesBailsOutIncomplete) {
  Context ctx;
  Builder b(ctx);
  // Counter with a huge bound: exploring all of it would take 1e6 states.
  b.def("C", {"n"},
        b.when(b.lt(b.p(0), b.c(1'000'000)),
               b.idle(b.call("C", {b.add(b.p(0), b.c(1))}))));
  Semantics sem(ctx);
  ExploreOptions opts;
  opts.max_states = 100;
  const auto r = explore(sem, b.start("C", {0}), opts);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.schedulable());
  EXPECT_EQ(r.states, 100u);
}

TEST(Explorer, TwoTasksFullUtilizationSchedulable) {
  Context ctx;
  Builder b(ctx);
  define_task(b, "T1", 1, 2, 2);
  define_task(b, "T2", 1, 2, 1);
  Semantics sem(ctx);
  const TermId sys =
      ctx.terms().parallel({b.start("T1", {0, 0}), b.start("T2", {0, 0})});
  const auto r = explore(sem, sys);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock_found) << "U = 1.0 with harmonic periods fits";
}

TEST(Explorer, OverloadedTasksDeadlock) {
  Context ctx;
  Builder b(ctx);
  define_task(b, "T1", 2, 3, 2);
  define_task(b, "T2", 2, 3, 1);
  Semantics sem(ctx);
  const TermId sys =
      ctx.terms().parallel({b.start("T1", {0, 0}), b.start("T2", {0, 0})});
  const auto r = explore(sem, sys);
  EXPECT_TRUE(r.deadlock_found) << "U = 4/3 cannot be schedulable";
  EXPECT_FALSE(r.trace.empty());
  // Every step of the reported failing scenario is a timed quantum or an
  // event; the final state has no successors.
  EXPECT_TRUE(sem.prioritized(r.first_deadlock).empty());
}

TEST(Explorer, InspectionSeesThreadParameters) {
  Context ctx;
  Builder b(ctx);
  define_task(b, "T1", 1, 3, 2);
  define_task(b, "T2", 1, 3, 1);
  Semantics sem(ctx);
  const TermId sys =
      ctx.terms().parallel({b.start("T1", {0, 0}), b.start("T2", {0, 0})});
  const auto components = inspect(ctx, sys);
  ASSERT_EQ(components.size(), 2u);
  const auto* t1 = find_by_path(components, "sys.T1");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->state_name, "Compute");
  EXPECT_EQ(t1->role, DefRole::ThreadState);
  ASSERT_EQ(t1->params.size(), 2u);
  EXPECT_EQ(t1->params[0], 0);

  // After the first quantum, the higher-priority task has executed 1.
  const auto fan = sem.prioritized(sys);
  ASSERT_FALSE(fan.empty());
  const auto after = inspect(ctx, fan[0].target);
  const auto* t1b = find_by_path(after, "sys.T1");
  ASSERT_NE(t1b, nullptr);
  EXPECT_EQ(t1b->params[0], 1);
}

TEST(Explorer, InspectionHandlesRestrictionAndScope) {
  Context ctx;
  Builder b(ctx);
  b.def("P", {"n"}, b.idle(b.call("P", {b.p(0)})), DefRole::Queue, "q.e1",
        "Queue");
  const TermId inner = b.start("P", {2});
  ScopeParts parts;
  parts.body = inner;
  parts.time_left = 5;
  const TermId scoped = ctx.terms().scope(parts);
  const TermId sys = ctx.terms().restrict(
      ctx.event_sets().intern({ctx.event("x")}), scoped);
  const auto components = inspect(ctx, sys);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].aadl_path, "q.e1");
  EXPECT_EQ(components[0].params[0], 2);
}

TEST(Explorer, LtsEnumeratesWholeSpace) {
  Context ctx;
  Builder b(ctx);
  b.def("Flip", {"s"},
        b.pick({b.when(b.eq(b.p(0), b.c(0)), b.idle(b.call("Flip", {b.c(1)}))),
                b.when(b.eq(b.p(0), b.c(1)),
                       b.idle(b.call("Flip", {b.c(0)})))}));
  Semantics sem(ctx);
  const auto lts = build_lts(sem, b.start("Flip", {0}));
  EXPECT_EQ(lts.states.size(), 2u);
  EXPECT_EQ(lts.edges.size(), 2u);
  EXPECT_EQ(lts.edges[0].size(), 1u);
  EXPECT_EQ(lts.edges[0][0].target, lts.states[1]);
}

TEST(Explorer, LtsMaxStatesLeavesNoDanglingIndex) {
  Context ctx;
  Builder b(ctx);
  // Unbounded-ish counter: far more reachable states than the cap.
  b.def("C", {"n"},
        b.when(b.lt(b.p(0), b.c(1'000)),
               b.idle(b.call("C", {b.add(b.p(0), b.c(1))}))));
  Semantics sem(ctx);
  const auto lts = build_lts(sem, b.start("C", {0}), /*max_states=*/10);
  // Regression: the index used to get an entry for a state that was never
  // pushed once the cap was hit, leaving a dangling slot number.
  EXPECT_EQ(lts.states.size(), 10u);
  EXPECT_EQ(lts.index.size(), lts.states.size());
  EXPECT_EQ(lts.edges.size(), lts.states.size());
  for (const auto& [term, slot] : lts.index) {
    ASSERT_LT(slot, lts.states.size());
    EXPECT_EQ(lts.states[slot], term);
  }
}

TEST(Explorer, SerialExploreReportsObservability) {
  Context ctx;
  Builder b(ctx);
  define_task(b, "T1", 1, 3, 2);
  define_task(b, "T2", 1, 3, 1);
  Semantics sem(ctx);
  const TermId sys =
      ctx.terms().parallel({b.start("T1", {0, 0}), b.start("T2", {0, 0})});
  const auto r = explore(sem, sys);
  EXPECT_GE(r.wall_ms, 0.0);
  EXPECT_GE(r.peak_frontier, 1u);
  EXPECT_GT(r.expanded, 0u);
  EXPECT_LE(r.expanded, r.states);  // each state is expanded at most once
  EXPECT_GT(r.sem_stats.computed, 0u);
  EXPECT_EQ(r.sem_stats.computed, sem.stats().computed)
      << "fresh Semantics: delta equals totals";
}

TEST(Explorer, ParallelSweepRunsIndependentAnalyses) {
  std::vector<int> verdicts(8, -1);
  parallel_sweep(8, [&](std::size_t i) {
    Context ctx;
    Builder b(ctx);
    // Jobs alternate between a schedulable and an overloaded pair.
    const int c = (i % 2 == 0) ? 1 : 2;
    define_task(b, "T1", c, 3, 2);
    define_task(b, "T2", c, 3, 1);
    Semantics sem(ctx);
    const TermId sys =
        ctx.terms().parallel({b.start("T1", {0, 0}), b.start("T2", {0, 0})});
    verdicts[i] = explore(sem, sys).deadlock_found ? 1 : 0;
  }, /*workers=*/4);
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    EXPECT_EQ(verdicts[i], static_cast<int>(i % 2)) << "job " << i;
}

}  // namespace
