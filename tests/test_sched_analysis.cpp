// Tests for the analytical baselines: utilization bounds, exact RTA, EDF
// demand analysis and QPA — including textbook reference values and
// property-based agreement between the two EDF procedures.
#include <gtest/gtest.h>

#include <cmath>

#include "sched/analysis.hpp"
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

TEST(Bounds, LiuLaylandValues) {
  EXPECT_DOUBLE_EQ(liu_layland_bound(1), 1.0);
  EXPECT_NEAR(liu_layland_bound(2), 0.8284, 1e-3);
  EXPECT_NEAR(liu_layland_bound(3), 0.7798, 1e-3);
  // n -> infinity: ln 2.
  EXPECT_NEAR(liu_layland_bound(100000), std::log(2.0), 1e-4);
}

TEST(Bounds, RmUtilizationTest) {
  TaskSet ts;
  ts.tasks = {mk("a", 1, 4), mk("b", 1, 5)};  // U = 0.45 < 0.828
  EXPECT_EQ(rm_utilization_test(ts), Verdict::Schedulable);
  ts.tasks = {mk("a", 2, 4), mk("b", 2, 5)};  // U = 0.9 > bound
  EXPECT_EQ(rm_utilization_test(ts), Verdict::Unknown);
}

TEST(Bounds, HyperbolicDominatesLiuLayland) {
  // Classic example where LL fails but the hyperbolic bound passes:
  // harmonic-ish utilizations.
  TaskSet ts;
  ts.tasks = {mk("a", 1, 2), mk("b", 1, 4), mk("c", 1, 8)};
  // U = 0.875 > LL(3) = 0.7798, but prod(1+U_i) = 1.5*1.25*1.125 = 2.109...
  EXPECT_EQ(rm_utilization_test(ts), Verdict::Unknown);
  // 2.109 > 2 so hyperbolic also fails here; use a set where it passes:
  ts.tasks = {mk("a", 2, 5), mk("b", 2, 5)};  // U = 0.8 > LL(2) = 0.828? no:
  // 0.8 < 0.828 so LL passes; construct U where LL fails, HB passes:
  ts.tasks = {mk("a", 1, 2), mk("b", 1, 3), mk("c", 1, 12)};
  // U = 0.5+0.333+0.083 = 0.9167 > LL(3); prod = 1.5*1.3333*1.0833 = 2.1666
  EXPECT_EQ(hyperbolic_bound_test(ts), Verdict::Unknown);
  // A genuinely HB-passing, LL-failing set:
  ts.tasks = {mk("a", 4, 8), mk("b", 1, 4), mk("c", 1, 16)};
  // U = 0.5 + 0.25 + 0.0625 = 0.8125 > LL(3) = 0.7798
  // prod = 1.5 * 1.25 * 1.0625 = 1.9922 <= 2
  EXPECT_EQ(rm_utilization_test(ts), Verdict::Unknown);
  EXPECT_EQ(hyperbolic_bound_test(ts), Verdict::Schedulable);
}

TEST(Rta, TextbookExample) {
  // Classic RM example: (C=1,T=4), (C=2,T=5), (C=5,T=20); U = 0.9.
  TaskSet ts;
  ts.tasks = {mk("t1", 1, 4, 0, 3), mk("t2", 2, 5, 0, 2),
              mk("t3", 5, 20, 0, 1)};
  const auto r = response_time_analysis(ts);
  EXPECT_EQ(r.verdict, Verdict::Schedulable);
  ASSERT_EQ(r.response.size(), 3u);
  EXPECT_EQ(r.response[0], 1);
  EXPECT_EQ(r.response[1], 3);
  EXPECT_EQ(r.response[2], 15);
}

TEST(Rta, DetectsMiss) {
  TaskSet ts;
  ts.tasks = {mk("t1", 2, 4, 0, 2), mk("t2", 3, 6, 0, 1)};
  // U = 1.0; t2's response: 3 + ceil(R/4)*2 -> R = 3+2=5, 3+4=7, 3+4=7;
  // R = 7 > D = 6.
  const auto r = response_time_analysis(ts);
  EXPECT_EQ(r.verdict, Verdict::Unschedulable);
  EXPECT_EQ(r.response[0], 2);
  // The fixed point was abandoned once it passed the deadline.
  EXPECT_EQ(r.response[1], -1);
}

TEST(Rta, BlockingTermShiftsResponse) {
  TaskSet ts;
  ts.tasks = {mk("t1", 1, 10, 0, 2), mk("t2", 2, 10, 0, 1)};
  const std::vector<Time> blocking = {3, 0};
  const auto r = response_time_analysis(ts, &blocking);
  EXPECT_EQ(r.response[0], 4);  // 1 + B = 4
  EXPECT_EQ(r.response[1], 3);  // 2 + interference 1
}

TEST(Rta, PriorityTieBrokenByIndex) {
  TaskSet ts;
  ts.tasks = {mk("t1", 2, 10, 0, 1), mk("t2", 2, 10, 0, 1)};
  const auto r = response_time_analysis(ts);
  EXPECT_EQ(r.response[0], 2);  // index 0 wins ties
  EXPECT_EQ(r.response[1], 4);
}

TEST(Edf, UtilizationTestExactForImplicit) {
  TaskSet ts;
  ts.tasks = {mk("a", 2, 4), mk("b", 2, 4)};  // U = 1.0
  EXPECT_EQ(edf_utilization_test(ts), Verdict::Schedulable);
  ts.tasks = {mk("a", 3, 4), mk("b", 2, 4)};  // U = 1.25
  EXPECT_EQ(edf_utilization_test(ts), Verdict::Unschedulable);
}

TEST(Edf, ExactUtilizationOfOneIsSchedulable) {
  // U = 1 exactly, but the double sum of these utilizations is
  // 1.0000000000000002: every EDF entry point must compare exactly.
  TaskSet ts;
  const Time periods[] = {20, 10, 4, 8, 20, 8, 5, 10};
  for (const Time t : periods) ts.tasks.push_back(mk("t", 1, t));
  ASSERT_GT(ts.utilization(), 1.0);  // the rounding this test pins
  EXPECT_EQ(edf_utilization_test(ts), Verdict::Schedulable);
  EXPECT_EQ(edf_demand_analysis(ts).verdict, Verdict::Schedulable);
  EXPECT_EQ(edf_qpa(ts).verdict, Verdict::Schedulable);

  // One more quantum of demand tips it over on all three.
  ts.tasks[0].wcet = 2;
  EXPECT_EQ(edf_utilization_test(ts), Verdict::Unschedulable);
  EXPECT_EQ(edf_demand_analysis(ts).verdict, Verdict::Unschedulable);
  EXPECT_EQ(edf_qpa(ts).verdict, Verdict::Unschedulable);
}

TEST(Edf, DemandAnalysisConstrainedDeadlines) {
  TaskSet ts;
  // D < T makes utilization insufficient; demand analysis is needed.
  ts.tasks = {mk("a", 2, 8, 4), mk("b", 3, 12, 6)};
  EXPECT_EQ(edf_demand_analysis(ts).verdict, Verdict::Schedulable);
  // Tighten deadlines until infeasible: both jobs demand 5 quanta by t=4.
  ts.tasks = {mk("a", 2, 8, 4), mk("b", 3, 12, 4)};
  const auto r = edf_demand_analysis(ts);
  EXPECT_EQ(r.verdict, Verdict::Unschedulable);
  ASSERT_TRUE(r.overflow_point.has_value());
  EXPECT_EQ(*r.overflow_point, 4);
}

TEST(Edf, DemandBoundFunctionValues) {
  TaskSet ts;
  ts.tasks = {mk("a", 2, 8, 4)};
  EXPECT_EQ(demand_bound(ts, 3), 0);
  EXPECT_EQ(demand_bound(ts, 4), 2);
  EXPECT_EQ(demand_bound(ts, 11), 2);
  EXPECT_EQ(demand_bound(ts, 12), 4);
}

TEST(Edf, RmSchedulableImpliesEdfSchedulable) {
  // Any RTA-schedulable fixed-priority set is EDF-schedulable (optimality).
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    WorkloadSpec spec;
    spec.task_count = 4;
    spec.total_utilization = 0.85;
    TaskSet ts = generate_workload(spec, seed);
    assign_rate_monotonic(ts);
    if (response_time_analysis(ts).verdict == Verdict::Schedulable) {
      EXPECT_EQ(edf_demand_analysis(ts).verdict, Verdict::Schedulable)
          << "seed " << seed;
    }
  }
}

// Property: QPA and full processor-demand analysis always agree — on the
// verdict AND on the first overflow point (the certificate machinery in
// src/lint renders whichever procedure ran, so a disagreement would make
// witnesses depend on the traversal direction). Swept across utilizations
// from comfortable to overloaded, with constrained deadlines throughout.
class EdfAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EdfAgreement, QpaMatchesFullDemandAnalysis) {
  for (const double u : {0.6, 0.85, 0.95, 1.1}) {
    for (const double df : {0.4, 0.6, 1.0}) {
      WorkloadSpec spec;
      spec.task_count = 4;
      spec.total_utilization = u;
      spec.deadline_fraction = df;  // < 1: deadline < period
      const TaskSet ts = generate_workload(spec, GetParam());
      const EdfResult qpa = edf_qpa(ts);
      const EdfResult full = edf_demand_analysis(ts);
      EXPECT_EQ(qpa.verdict, full.verdict)
          << "seed " << GetParam() << " U=" << u << " df=" << df;
      ASSERT_EQ(qpa.overflow_point.has_value(),
                full.overflow_point.has_value())
          << "seed " << GetParam() << " U=" << u << " df=" << df;
      if (qpa.overflow_point) {
        EXPECT_EQ(*qpa.overflow_point, *full.overflow_point)
            << "seed " << GetParam() << " U=" << u << " df=" << df;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfAgreement,
                         ::testing::Range<std::uint64_t>(1, 60));

TEST(TaskSetOps, UtilizationAndHyperperiod) {
  TaskSet ts;
  ts.tasks = {mk("a", 1, 4), mk("b", 2, 10)};
  EXPECT_NEAR(ts.utilization(), 0.45, 1e-12);
  EXPECT_EQ(ts.hyperperiod(), 20);
  EXPECT_TRUE(ts.implicit_deadlines());
  ts.tasks[0].deadline = 3;
  EXPECT_TRUE(ts.constrained_deadlines());
  EXPECT_FALSE(ts.implicit_deadlines());
}

TEST(TaskSetOps, ProcessorPartition) {
  TaskSet ts;
  ts.tasks = {mk("a", 1, 4), mk("b", 2, 10)};
  ts.tasks[1].processor = 1;
  EXPECT_EQ(ts.on_processor(0).tasks.size(), 1u);
  EXPECT_EQ(ts.on_processor(1).tasks[0].name, "b");
}

TEST(PriorityAssignment, RateMonotonicOrdersByPeriod) {
  TaskSet ts;
  ts.tasks = {mk("slow", 1, 20), mk("fast", 1, 5), mk("mid", 1, 10)};
  assign_rate_monotonic(ts);
  EXPECT_GT(ts.tasks[1].priority, ts.tasks[2].priority);
  EXPECT_GT(ts.tasks[2].priority, ts.tasks[0].priority);
  // Distinct priorities.
  EXPECT_NE(ts.tasks[0].priority, ts.tasks[1].priority);
}

TEST(PriorityAssignment, DeadlineMonotonicOrdersByDeadline) {
  TaskSet ts;
  ts.tasks = {mk("a", 1, 20, 6), mk("b", 1, 5, 5), mk("c", 1, 10, 10)};
  assign_deadline_monotonic(ts);
  EXPECT_GT(ts.tasks[1].priority, ts.tasks[0].priority);
  EXPECT_GT(ts.tasks[0].priority, ts.tasks[2].priority);
}

}  // namespace
