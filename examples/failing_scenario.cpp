// Demonstrates the paper's diagnostic output (§5): an overloaded system is
// found non-schedulable and the deadlocking ACSR trace is lifted back to
// the AADL level as a per-thread timeline plus a narrated step list.
#include <iostream>

#include "core/analyzer.hpp"

static const char* kModel = R"(
package Overload
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;

  thread Sensor
  end Sensor;
  thread implementation Sensor.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Deadline => 4 ms;
  end Sensor.impl;

  thread Filter
  end Filter;
  thread implementation Filter.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 6 ms;
    Compute_Execution_Time => 2 ms .. 4 ms;
    Deadline => 6 ms;
  end Filter.impl;

  system Node
  end Node;
  system implementation Node.impl
  subcomponents
    cpu    : processor Cpu;
    sensor : thread Sensor.impl;
    filter : thread Filter.impl;
  properties
    Actual_Processor_Binding => reference (cpu) applies to sensor;
    Actual_Processor_Binding => reference (cpu) applies to filter;
  end Node.impl;
end Overload;
)";

int main() {
  using namespace aadlsched;

  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;

  // U = 2/4 + 4/6 = 1.17 on one processor: a violation must exist, and the
  // analyzer shows where.
  const core::AnalysisResult result =
      core::analyze_source(kModel, "Node.impl", opts);
  if (!result.diagnostics.empty()) std::cerr << result.diagnostics;
  std::cout << result.summary() << "\n";
  // Exit 0: finding the violation IS the expected outcome of this demo.
  return result.outcome == core::Outcome::NotSchedulable ? 0 : 1;
}
