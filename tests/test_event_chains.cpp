// E4: "the tool can handle systems with complex patterns of interaction
// between components, which in AADL go beyond the scope of more
// traditional schedulability analysis algorithms" (§1).
//
// An event chain (periodic producer dispatching a sporadic consumer through
// a queued connection) is analyzed exactly by the exploration, while the
// classical treatment — the consumer as an *independent* sporadic task
// released at the critical instant — is conservative and rejects the
// system.
#include <gtest/gtest.h>

#include "acsr/semantics.hpp"
#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "sched/analysis.hpp"
#include "sched/simulator.hpp"
#include "translate/translator.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;

namespace {

// Producer: T=4, C=1, high priority. Consumer: sporadic, C=1, D=1,
// dispatched by the producer's completion event. On one cpu.
const char* kChain = R"(
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
      Period => 4 ms;
      Compute_Execution_Time => 1 ms .. 1 ms;
      Deadline => 4 ms;
      Priority => 2;
    end Producer.impl;

    thread Consumer
    features
      trig : in event port;
    end Consumer;
    thread implementation Consumer.impl
    properties
      Dispatch_Protocol => Sporadic;
      Period => 4 ms;
      Compute_Execution_Time => 1 ms .. 1 ms;
      Deadline => 1 ms;
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

TEST(EventChains, ExplorationProvesChainSchedulable) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  const auto r = core::analyze_source(kChain, "R.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics << r.summary();
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable)
      << "the consumer is only released when the cpu has just become free";
}

TEST(EventChains, ClassicalIndependentTreatmentIsConservative) {
  // The same two tasks treated as independent with synchronous release:
  // the producer (higher priority) steals the consumer's only quantum.
  sched::TaskSet ts;
  sched::Task p;
  p.name = "p";
  p.wcet = p.bcet = 1;
  p.period = p.deadline = 4;
  p.priority = 2;
  sched::Task c;
  c.name = "c";
  c.wcet = c.bcet = 1;
  c.period = 4;
  c.deadline = 1;
  c.priority = 1;
  c.kind = sched::DispatchKind::Sporadic;
  ts.tasks = {p, c};
  EXPECT_FALSE(sched::simulate(ts).schedulable);
  EXPECT_EQ(sched::response_time_analysis(ts).verdict,
            sched::Verdict::Unschedulable);
}

TEST(EventChains, TwoHopPipelineEndToEnd) {
  // Producer -> mid (sporadic) -> sink (sporadic), each 1 quantum, on one
  // cpu; the pipeline drains within the producer's period.
  const char* src = R"(
    package Pipe
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
        Priority => 3;
      end Producer.impl;
      thread Mid
      features
        trig : in event port;
        fwd  : out event port;
      end Mid;
      thread implementation Mid.impl
      properties
        Dispatch_Protocol => Sporadic;
        Period => 6 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 3 ms;
        Priority => 2;
      end Mid.impl;
      thread Sink
      features
        trig : in event port;
      end Sink;
      thread implementation Sink.impl
      properties
        Dispatch_Protocol => Sporadic;
        Period => 6 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
        Deadline => 3 ms;
        Priority => 1;
      end Sink.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        p   : thread Producer.impl;
        m   : thread Mid.impl;
        s   : thread Sink.impl;
        cpu : processor Cpu;
      connections
        c1 : port p.evt -> m.trig;
        c2 : port m.fwd -> s.trig;
      properties
        Actual_Processor_Binding => reference (cpu) applies to p;
        Actual_Processor_Binding => reference (cpu) applies to m;
        Actual_Processor_Binding => reference (cpu) applies to s;
      end R.impl;
    end Pipe;
  )";
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  const auto r = core::analyze_source(src, "R.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics << r.summary();
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable) << r.summary();
  EXPECT_GT(r.states, 5u);
}

TEST(EventChains, TightenedMidDeadlineFails) {
  // Same pipeline but Mid's deadline shrinks below its dispatch latency
  // once the producer interferes on the second round: with D = 1 the chain
  // still works (mid runs right after p), so use a mid with C = 2, D = 2
  // and a sink that steals a quantum... simplest failing variant: give Mid
  // C = 2 and D = 1, which can never fit.
  std::string src = R"(
    package Pipe2
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
      thread Mid
      features
        trig : in event port;
      end Mid;
      thread implementation Mid.impl
      properties
        Dispatch_Protocol => Sporadic;
        Period => 6 ms;
        Compute_Execution_Time => 2 ms .. 2 ms;
        Deadline => 1 ms;
        Priority => 1;
      end Mid.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        p   : thread Producer.impl;
        m   : thread Mid.impl;
        cpu : processor Cpu;
      connections
        c1 : port p.evt -> m.trig;
      properties
        Actual_Processor_Binding => reference (cpu) applies to p;
        Actual_Processor_Binding => reference (cpu) applies to m;
      end R.impl;
    end Pipe2;
  )";
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  const auto r = core::analyze_source(src, "R.impl", opts);
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  EXPECT_FALSE(r.scenario->missed_threads.empty());
}

}  // namespace
