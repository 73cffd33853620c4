// Tests for the discrete-time scheduling simulator, including agreement
// properties against RTA (fixed priority) and demand analysis (EDF) on
// randomized workloads — for independent synchronous periodic tasks all
// three must return the same verdict.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sched/analysis.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"

using namespace aadlsched::sched;

namespace {

Task mk(const char* name, Time c, Time t, Time d = 0, int prio = 0) {
  Task task;
  task.name = name;
  task.wcet = c;
  task.period = t;
  task.deadline = d == 0 ? t : d;
  task.priority = prio;
  return task;
}

TEST(Simulator, SingleTaskRunsImmediately) {
  TaskSet ts;
  ts.tasks = {mk("t", 2, 5, 0, 1)};
  SimOptions opts;
  opts.record_timeline = true;
  const auto r = simulate(ts, opts);
  EXPECT_TRUE(r.schedulable);
  ASSERT_GE(r.timeline.size(), 5u);
  EXPECT_EQ(r.timeline[0], 0);
  EXPECT_EQ(r.timeline[1], 0);
  EXPECT_EQ(r.timeline[2], -1);  // idle
  EXPECT_EQ(r.worst_response[0], 2);
}

TEST(Simulator, RejectsPeriodBelowOneQuantum) {
  // A zero period has no release pattern; it used to be a division by zero.
  TaskSet ts;
  ts.tasks = {mk("fast", 1, 5, 0, 2), mk("zero", 1, 5, 5, 1)};
  ts.tasks[1].period = 0;
  EXPECT_THROW(simulate(ts), std::invalid_argument);
  // A background task has no period and stays accepted.
  ts.tasks[1].kind = DispatchKind::Background;
  EXPECT_TRUE(simulate(ts).schedulable);
}

TEST(Simulator, FixedPriorityPreemptsLower) {
  TaskSet ts;
  ts.tasks = {mk("hi", 1, 4, 0, 2), mk("lo", 2, 8, 0, 1)};
  SimOptions opts;
  opts.record_timeline = true;
  const auto r = simulate(ts, opts);
  EXPECT_TRUE(r.schedulable);
  // t=0: hi; t=1..2: lo; t=4: hi again.
  EXPECT_EQ(r.timeline[0], 0);
  EXPECT_EQ(r.timeline[1], 1);
  EXPECT_EQ(r.timeline[2], 1);
  EXPECT_EQ(r.timeline[4], 0);
}

TEST(Simulator, DetectsDeadlineMiss) {
  TaskSet ts;
  ts.tasks = {mk("hi", 2, 4, 0, 2), mk("lo", 3, 6, 0, 1)};  // U = 1.0, misses
  const auto r = simulate(ts);
  EXPECT_FALSE(r.schedulable);
  ASSERT_TRUE(r.first_miss.has_value());
  EXPECT_EQ(r.first_miss->task, 1u);
  EXPECT_EQ(r.first_miss->deadline, 6);
}

TEST(Simulator, EdfSchedulesFullUtilization) {
  TaskSet ts;
  ts.tasks = {mk("a", 2, 4), mk("b", 3, 6)};  // U = 1.0
  SimOptions opts;
  opts.policy = SchedulingPolicy::Edf;
  EXPECT_TRUE(simulate(ts, opts).schedulable);
  // The same set misses under any fixed-priority assignment.
  assign_rate_monotonic(ts);
  EXPECT_FALSE(simulate(ts).schedulable);
}

TEST(Simulator, LlfSchedulesFullUtilization) {
  TaskSet ts;
  ts.tasks = {mk("a", 2, 4), mk("b", 3, 6)};
  SimOptions opts;
  opts.policy = SchedulingPolicy::Llf;
  EXPECT_TRUE(simulate(ts, opts).schedulable);
}

TEST(Simulator, WorstResponseMatchesRta) {
  TaskSet ts;
  ts.tasks = {mk("t1", 1, 4, 0, 3), mk("t2", 2, 5, 0, 2),
              mk("t3", 5, 20, 0, 1)};
  const auto sim = simulate(ts);
  const auto rta = response_time_analysis(ts);
  ASSERT_TRUE(sim.schedulable);
  for (std::size_t i = 0; i < ts.tasks.size(); ++i)
    EXPECT_EQ(sim.worst_response[i], rta.response[i]) << "task " << i;
}

TEST(Simulator, BackgroundTaskRunsInSlack) {
  TaskSet ts;
  ts.tasks = {mk("hi", 1, 2, 0, 2), mk("bg", 3, 1, 0, 1)};
  ts.tasks[1].kind = DispatchKind::Background;
  SimOptions opts;
  opts.record_timeline = true;
  opts.horizon = 8;
  const auto r = simulate(ts, opts);
  EXPECT_TRUE(r.schedulable);
  // bg fills the idle quanta: 0 hi, 1 bg, 2 hi, 3 bg, 4 hi, 5 bg (done).
  EXPECT_EQ(r.timeline[0], 0);
  EXPECT_EQ(r.timeline[1], 1);
  EXPECT_EQ(r.timeline[3], 1);
  EXPECT_EQ(r.timeline[5], 1);
  EXPECT_EQ(r.timeline[7], -1);
}

TEST(Simulator, GanttRendering) {
  TaskSet ts;
  ts.tasks = {mk("hi", 1, 4, 0, 2), mk("lo", 2, 8, 0, 1)};
  SimOptions opts;
  opts.record_timeline = true;
  const auto r = simulate(ts, opts);
  const std::string g = render_gantt(ts, r, 8);
  EXPECT_NE(g.find("hi  |#...#...|"), std::string::npos) << g;
  EXPECT_NE(g.find("lo  |.##.....|"), std::string::npos) << g;
}

TEST(Simulator, ZeroWcetTaskNeverRuns) {
  TaskSet ts;
  ts.tasks = {mk("ghost", 0, 4, 0, 9), mk("real", 1, 4, 0, 1)};
  SimOptions opts;
  opts.record_timeline = true;
  const auto r = simulate(ts, opts);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.timeline[0], 1);
}

// Agreement properties on random workloads: the simulator (exact for
// synchronous independent sets) must agree with the exact analyses.
class SimAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimAgreement, FixedPriorityMatchesRta) {
  WorkloadSpec spec;
  spec.task_count = 4;
  spec.total_utilization = 0.9;
  TaskSet ts = generate_workload(spec, GetParam());
  assign_rate_monotonic(ts);
  const bool rta_ok =
      response_time_analysis(ts).verdict == Verdict::Schedulable;
  EXPECT_EQ(simulate(ts).schedulable, rta_ok) << "seed " << GetParam();
}

TEST_P(SimAgreement, EdfMatchesDemandAnalysis) {
  WorkloadSpec spec;
  spec.task_count = 4;
  spec.total_utilization = 0.95;
  spec.deadline_fraction = 0.7;
  const TaskSet ts = generate_workload(spec, GetParam());
  SimOptions opts;
  opts.policy = SchedulingPolicy::Edf;
  const bool pda_ok = edf_demand_analysis(ts).verdict == Verdict::Schedulable;
  EXPECT_EQ(simulate(ts, opts).schedulable, pda_ok) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimAgreement,
                         ::testing::Range<std::uint64_t>(1, 60));

}  // namespace
