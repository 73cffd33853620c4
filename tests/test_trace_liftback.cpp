// E6: the failing scenario is "raised" to the level of the original AADL
// model (§5): steps are re-expressed as AADL dispatches/completions and a
// per-thread timeline; the violated thread is named.
#include <gtest/gtest.h>

#include "core/analyzer.hpp"
#include "core/taskset_aadl.hpp"

using namespace aadlsched;
using namespace aadlsched::core;

namespace {

AnalyzerOptions ms_opts() {
  AnalyzerOptions o;
  o.translation.quantum_ns = 1'000'000;
  return o;
}

TEST(TraceLiftback, DeterministicMissTimeline) {
  // One thread, C = 3 > D = 2: misses deterministically at quantum 2.
  sched::TaskSet ts;
  sched::Task t;
  t.name = "x";
  t.wcet = t.bcet = 3;
  t.period = 5;
  t.deadline = 2;
  t.priority = 1;
  ts.tasks = {t};
  const auto r = analyze_source(
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority),
      "Root.impl", ms_opts());
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  ASSERT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  const FailingScenario& fs = *r.scenario;

  ASSERT_EQ(fs.missed_threads.size(), 1u);
  EXPECT_EQ(fs.missed_threads[0], "t0");
  EXPECT_EQ(fs.quanta, 2);

  ASSERT_EQ(fs.timeline.size(), 1u);
  EXPECT_EQ(fs.timeline[0].thread_path, "t0");
  // Alone on the cpu the thread runs both quanta before the deadline hits.
  EXPECT_EQ(fs.timeline[0].cells, "##");

  // Steps mention the dispatch in AADL terms.
  ASSERT_FALSE(fs.steps.empty());
  EXPECT_NE(fs.steps[0].find("dispatch of t0"), std::string::npos);
}

TEST(TraceLiftback, PreemptionVisibleInTimeline) {
  // hi (C=2, T=D=2, prio high) starves lo (C=1, D=1): lo is preempted in
  // its only quantum and the timeline shows '*'.
  sched::TaskSet ts;
  sched::Task hi;
  hi.name = "hi";
  hi.wcet = hi.bcet = 2;
  hi.period = hi.deadline = 2;
  hi.priority = 2;
  sched::Task lo;
  lo.name = "lo";
  lo.wcet = lo.bcet = 1;
  lo.period = 4;
  lo.deadline = 1;
  lo.priority = 1;
  ts.tasks = {hi, lo};
  const auto r = analyze_source(
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority),
      "Root.impl", ms_opts());
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  ASSERT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  const FailingScenario& fs = *r.scenario;

  const TimelineRow* lo_row = nullptr;
  const TimelineRow* hi_row = nullptr;
  for (const auto& row : fs.timeline) {
    if (row.thread_path == "t1") lo_row = &row;
    if (row.thread_path == "t0") hi_row = &row;
  }
  ASSERT_NE(lo_row, nullptr);
  ASSERT_NE(hi_row, nullptr);
  EXPECT_EQ(fs.quanta, 1);
  EXPECT_EQ(hi_row->cells, "#");
  EXPECT_EQ(lo_row->cells, "*");
  ASSERT_EQ(fs.missed_threads.size(), 1u);
  EXPECT_EQ(fs.missed_threads[0], "t1");
}

TEST(TraceLiftback, RenderContainsLegendAndRows) {
  sched::TaskSet ts;
  sched::Task t;
  t.name = "x";
  t.wcet = t.bcet = 2;
  t.period = 4;
  t.deadline = 1;
  t.priority = 1;
  ts.tasks = {t};
  const auto r = analyze_source(
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority),
      "Root.impl", ms_opts());
  ASSERT_TRUE(r.scenario.has_value());
  const std::string rendered = r.scenario->render();
  EXPECT_NE(rendered.find("Failing scenario"), std::string::npos);
  EXPECT_NE(rendered.find("t0"), std::string::npos);
  EXPECT_NE(rendered.find("# running"), std::string::npos);
  EXPECT_NE(rendered.find("violated: t0"), std::string::npos);
}

TEST(TraceLiftback, QueueOverflowNamedInScenario) {
  const char* src = R"(
    package P
    public
      device Env
      features
        tick : out event port;
      end Env;
      processor C
      properties
        Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
      end C;
      thread A
      features
        trig : in event port;
      end A;
      thread implementation A.impl
      properties
        Dispatch_Protocol => Aperiodic;
        Compute_Execution_Time => 2 ms .. 2 ms;
        Deadline => 8 ms;
      end A.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        a : thread A.impl;
        c : processor C;
        e : device Env;
      connections
        conn : port e.tick -> a.trig;
      properties
        Actual_Processor_Binding => reference (c) applies to a;
        Overflow_Handling_Protocol => Error applies to conn;
      end R.impl;
    end P;
  )";
  const auto r = analyze_source(src, "R.impl", ms_opts());
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  ASSERT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  bool overflow_named = false;
  for (const auto& m : r.scenario->missed_threads)
    overflow_named |= m.find("queue overflow") != std::string::npos;
  EXPECT_TRUE(overflow_named) << r.summary();
  // The steps mention the queueing of environment events in AADL terms.
  bool queue_step = false;
  for (const auto& s : r.scenario->steps)
    queue_step |= s.find("event queued on") != std::string::npos;
  EXPECT_TRUE(queue_step);
}

}  // namespace
