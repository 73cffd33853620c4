// Tests for the workload generator: determinism, UUniFast distribution
// invariants, and structural constraints on generated task sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sched/workload.hpp"

using namespace aadlsched::sched;
using aadlsched::util::Xoshiro256;

namespace {

TEST(UUniFast, SharesSumToTotal) {
  Xoshiro256 rng(99);
  for (int rep = 0; rep < 50; ++rep) {
    const auto us = uunifast(5, 0.8, rng);
    ASSERT_EQ(us.size(), 5u);
    double sum = 0;
    for (double u : us) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 0.8 + 1e-9);
      sum += u;
    }
    EXPECT_NEAR(sum, 0.8, 1e-9);
  }
}

TEST(UUniFast, SingleTaskGetsEverything) {
  Xoshiro256 rng(1);
  const auto us = uunifast(1, 0.5, rng);
  ASSERT_EQ(us.size(), 1u);
  EXPECT_DOUBLE_EQ(us[0], 0.5);
}

TEST(UUniFast, ZeroTasks) {
  Xoshiro256 rng(1);
  EXPECT_TRUE(uunifast(0, 0.5, rng).empty());
}

TEST(Workload, DeterministicInSeed) {
  WorkloadSpec spec;
  spec.task_count = 6;
  const TaskSet a = generate_workload(spec, 1234);
  const TaskSet b = generate_workload(spec, 1234);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].wcet, b.tasks[i].wcet);
    EXPECT_EQ(a.tasks[i].period, b.tasks[i].period);
    EXPECT_EQ(a.tasks[i].deadline, b.tasks[i].deadline);
  }
  const TaskSet c = generate_workload(spec, 1235);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i)
    any_diff |= a.tasks[i].wcet != c.tasks[i].wcet ||
                a.tasks[i].period != c.tasks[i].period;
  EXPECT_TRUE(any_diff);
}

TEST(Workload, StructuralInvariants) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    WorkloadSpec spec;
    spec.task_count = 5;
    spec.total_utilization = 0.75;
    spec.deadline_fraction = 0.5;
    const TaskSet ts = generate_workload(spec, seed);
    ASSERT_EQ(ts.tasks.size(), 5u);
    for (const Task& t : ts.tasks) {
      EXPECT_GE(t.wcet, 1);
      EXPECT_LE(t.wcet, t.period);
      EXPECT_GE(t.deadline, t.wcet);
      EXPECT_LE(t.deadline, t.period);
      EXPECT_TRUE(std::find(spec.periods.begin(), spec.periods.end(),
                            t.period) != spec.periods.end());
    }
    EXPECT_TRUE(ts.constrained_deadlines());
  }
}

TEST(Workload, ImplicitDeadlinesWhenFractionIsOne) {
  WorkloadSpec spec;
  spec.deadline_fraction = 1.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    EXPECT_TRUE(generate_workload(spec, seed).implicit_deadlines());
}

// Regression: an empty period set used to underflow `periods.size() - 1`,
// hit Xoshiro256::uniform_int's span==0 full-range branch, and index
// spec.periods out of bounds. The spec must be rejected with a diagnostic,
// never generated (this suite runs under the asan ctest label).
TEST(WorkloadValidation, EmptyPeriodSetIsRejectedNotUB) {
  WorkloadSpec spec;
  spec.periods.clear();
  const auto bad = validate_workload_spec(spec);
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("period"), std::string::npos);

  std::string error;
  EXPECT_FALSE(try_generate_workload(spec, 42, error).has_value());
  EXPECT_NE(error.find("period"), std::string::npos);
  // The legacy signature degrades to an empty set instead of crashing.
  EXPECT_TRUE(generate_workload(spec, 42).tasks.empty());
}

TEST(WorkloadValidation, StructuralInvariantsOfTheSpecItself) {
  const auto rejects = [](auto mutate, const char* what) {
    WorkloadSpec spec;
    mutate(spec);
    std::string error;
    EXPECT_FALSE(try_generate_workload(spec, 1, error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_TRUE(generate_workload(spec, 1).tasks.empty()) << what;
  };
  rejects([](WorkloadSpec& s) { s.task_count = 0; }, "zero tasks");
  rejects([](WorkloadSpec& s) { s.total_utilization = 0.0; }, "zero U");
  rejects([](WorkloadSpec& s) { s.total_utilization = -0.5; }, "negative U");
  rejects([](WorkloadSpec& s) { s.deadline_fraction = -0.1; }, "df < 0");
  rejects([](WorkloadSpec& s) { s.deadline_fraction = 1.5; }, "df > 1");
  rejects([](WorkloadSpec& s) { s.periods = {4, 0, 8}; }, "zero period");

  // A valid spec still round-trips through the checked entry point.
  WorkloadSpec ok;
  std::string error;
  const auto ts = try_generate_workload(ok, 7, error);
  ASSERT_TRUE(ts.has_value()) << error;
  EXPECT_EQ(ts->tasks.size(), ok.task_count);
}

// Property: WCET rounding plus the C >= 1 clamp drift the realized
// sum(C/T) from the requested total by at most 1/T per task (|llround
// error| <= 0.5 quantum; a 0 -> 1 bump or a clamp to T stays under one
// quantum), so on the default period set (min period 4) the total drift is
// bounded by task_count / 4. The generator must record the request so
// consumers can bin by the realized value.
TEST(WorkloadRealizedUtilization, DriftIsRecordedAndBounded) {
  bool any_drift = false;
  for (std::size_t n : {2u, 4u, 8u}) {
    for (double u : {0.3, 0.6, 0.9}) {
      WorkloadSpec spec;
      spec.task_count = n;
      spec.total_utilization = u;
      const Time min_period =
          *std::min_element(spec.periods.begin(), spec.periods.end());
      const double bound =
          static_cast<double>(n) / static_cast<double>(min_period) + 1e-9;
      for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        const TaskSet ts = generate_workload(spec, seed);
        EXPECT_DOUBLE_EQ(ts.requested_utilization, u);
        double realized = 0;
        for (const Task& t : ts.tasks)
          realized += static_cast<double>(t.wcet) /
                      static_cast<double>(t.period);
        EXPECT_NEAR(ts.utilization(), realized, 1e-12);
        EXPECT_NEAR(ts.utilization_drift(), realized - u, 1e-12);
        EXPECT_LE(std::abs(ts.utilization_drift()), bound)
            << "n=" << n << " u=" << u << " seed=" << seed;
        any_drift |= std::abs(ts.utilization_drift()) > 1e-6;
      }
    }
  }
  // The drift is real (not a vacuous bound): some seed must actually move.
  EXPECT_TRUE(any_drift);
}

TEST(WorkloadRealizedUtilization, UnsetRequestMeansZeroDrift) {
  TaskSet ts;
  ts.tasks.push_back({"t", 2, 2, 4, 4, 0, DispatchKind::Periodic, 0});
  EXPECT_LT(ts.requested_utilization, 0);
  EXPECT_DOUBLE_EQ(ts.utilization_drift(), 0.0);
  EXPECT_DOUBLE_EQ(ts.utilization(), 0.5);
}

TEST(Workload, UtilizationTracksTarget) {
  // Rounding WCETs distorts utilization; with generous periods the mean
  // must stay close to the target (small periods + C >= 1 bias it up).
  WorkloadSpec spec;
  spec.task_count = 4;
  spec.periods = {20, 25, 40, 50, 80, 100};
  spec.total_utilization = 0.6;
  double total = 0.0;
  const int reps = 200;
  for (int seed = 1; seed <= reps; ++seed)
    total += generate_workload(spec, static_cast<std::uint64_t>(seed))
                 .utilization();
  EXPECT_NEAR(total / reps, 0.6, 0.1);
}

}  // namespace
