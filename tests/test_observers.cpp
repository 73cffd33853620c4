// Tests for the §5 extensions: end-to-end latency observer processes
// ("an observer process can capture violations of an end-to-end latency
// constraint ... just like a dispatcher process, would deadlock if the
// output event is not observed by the flow deadline") and Dispatch_Offset
// phasing of periodic dispatchers.
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

std::string one_task(int c, int t) {
  sched::TaskSet ts;
  sched::Task task;
  task.name = "x";
  task.wcet = task.bcet = c;
  task.period = task.deadline = t;
  task.priority = 1;
  ts.tasks = {task};
  return core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority);
}

TEST(LatencyObserver, ResponseTimeBoundHolds) {
  // Source == sink measures dispatch-to-completion (the response time).
  // C = 2 alone on a cpu: response is exactly 2.
  AnalyzerOptions opts = ms_opts();
  opts.translation.latency_specs.push_back(
      {"t0", "t0", 2 * 1'000'000});
  const auto r = analyze_source(one_task(2, 6), "Root.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable) << r.summary();
}

TEST(LatencyObserver, ResponseTimeBoundViolated) {
  AnalyzerOptions opts = ms_opts();
  opts.translation.latency_specs.push_back(
      {"t0", "t0", 1 * 1'000'000});  // response is 2 > 1
  const auto r = analyze_source(one_task(2, 6), "Root.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  bool latency_named = false;
  for (const auto& m : r.scenario->missed_threads)
    latency_named |= m.find("latency: t0 -> t0") != std::string::npos;
  EXPECT_TRUE(latency_named) << r.summary();
}

TEST(LatencyObserver, ChainLatency) {
  // Producer (C=1, T=6) -> sporadic consumer (C=1): end-to-end latency
  // from producer dispatch to consumer completion is 2 quanta on an idle
  // cpu. A bound of 2 holds, a bound of 1 is violated.
  const char* chain = R"(
    package Chain
    public
      processor Cpu
      properties
        Scheduling_Protocol => POSIX_1003_HIGHEST_PRIORITY_FIRST_PROTOCOL;
      end Cpu;
      thread Producer
      features
        evt : out event port;
      end Producer;
      thread implementation Producer.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 6 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 6 ms;
        Priority => 2;
      end Producer.impl;
      thread Consumer
      features
        trig : in event port;
      end Consumer;
      thread implementation Consumer.impl
      properties
        Dispatch_Protocol => Sporadic;
        Period => 6 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 6 ms;
        Priority => 1;
      end Consumer.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        p   : thread Producer.impl;
        c   : thread Consumer.impl;
        cpu : processor Cpu;
      connections
        conn : port p.evt -> c.trig;
      properties
        Actual_Processor_Binding => reference (cpu) applies to p;
        Actual_Processor_Binding => reference (cpu) applies to c;
      end R.impl;
    end Chain;
  )";
  {
    AnalyzerOptions opts = ms_opts();
    opts.translation.latency_specs.push_back({"p", "c", 2 * 1'000'000});
    const auto r = analyze_source(chain, "R.impl", opts);
    ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
    EXPECT_EQ(r.outcome, core::Outcome::Schedulable) << r.summary();
  }
  {
    AnalyzerOptions opts = ms_opts();
    opts.translation.latency_specs.push_back({"p", "c", 1 * 1'000'000});
    const auto r = analyze_source(chain, "R.impl", opts);
    ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
    EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  }
}

TEST(LatencyObserver, UnknownThreadReported) {
  AnalyzerOptions opts = ms_opts();
  opts.translation.latency_specs.push_back({"ghost", "t0", 1'000'000});
  const auto r = analyze_source(one_task(1, 4), "Root.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::Error);
  EXPECT_NE(r.diagnostics.find("unknown thread"), std::string::npos);
}

TEST(LatencyObserver, ObserverDoesNotPerturbVerdict) {
  // A generous bound must leave the verdict untouched.
  AnalyzerOptions plain = ms_opts();
  AnalyzerOptions observed = ms_opts();
  observed.translation.latency_specs.push_back(
      {"t0", "t0", 100 * 1'000'000});
  const auto a = analyze_source(one_task(2, 5), "Root.impl", plain);
  const auto b = analyze_source(one_task(2, 5), "Root.impl", observed);
  EXPECT_EQ(a.outcome, b.outcome);
}

TEST(DispatchOffset, PhasingResolvesContention) {
  // Two C=1 T=2 D=1 threads on one cpu: synchronous release misses (one of
  // them is preempted past its deadline); offsetting the second by one
  // quantum interleaves them perfectly.
  const char* model = R"(
    package Phase
    public
      processor Cpu
      properties
        Scheduling_Protocol => POSIX_1003_HIGHEST_PRIORITY_FIRST_PROTOCOL;
      end Cpu;
      thread A
      end A;
      thread implementation A.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 2 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 1 ms;
        Priority => 2;
      end A.impl;
      thread B
      end B;
      thread implementation B.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 2 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 1 ms;
        Priority => 1;
        %OFFSET%
      end B.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        a   : thread A.impl;
        b   : thread B.impl;
        cpu : processor Cpu;
      properties
        Actual_Processor_Binding => reference (cpu) applies to a;
        Actual_Processor_Binding => reference (cpu) applies to b;
      end R.impl;
    end Phase;
  )";
  std::string synchronous = model;
  synchronous.replace(synchronous.find("%OFFSET%"), 8, "");
  std::string phased = model;
  phased.replace(phased.find("%OFFSET%"), 8, "Dispatch_Offset => 1 ms;");

  const auto sync_r = analyze_source(synchronous, "R.impl", ms_opts());
  ASSERT_NE(sync_r.outcome, core::Outcome::Error) << sync_r.diagnostics;
  EXPECT_EQ(sync_r.outcome, core::Outcome::NotSchedulable)
      << "synchronous release must collide";

  const auto phased_r = analyze_source(phased, "R.impl", ms_opts());
  ASSERT_NE(phased_r.outcome, core::Outcome::Error) << phased_r.diagnostics;
  EXPECT_EQ(phased_r.outcome, core::Outcome::Schedulable) << phased_r.summary();
}

TEST(DispatchOffset, OffsetEqualToPeriodActsLikeZero) {
  const char* model = R"(
    package P
    public
      processor Cpu
      properties
        Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
      end Cpu;
      thread T
      end T;
      thread implementation T.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 3 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Dispatch_Offset => 3 ms;
      end T.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        t   : thread T.impl;
        cpu : processor Cpu;
      properties
        Actual_Processor_Binding => reference (cpu) applies to t;
      end R.impl;
    end P;
  )";
  const auto r = analyze_source(model, "R.impl", ms_opts());
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
}

}  // namespace
