// Quickstart: analyze a two-thread AADL model given inline, print the
// verdict. This is the smallest complete use of the public API.
#include <iostream>

#include "core/analyzer.hpp"

static const char* kModel = R"(
package Quickstart
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;

  thread Control
  end Control;
  thread implementation Control.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 2 ms .. 4 ms;
    Deadline => 10 ms;
  end Control.impl;

  thread Logger
  end Logger;
  thread implementation Logger.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 20 ms;
    Compute_Execution_Time => 5 ms .. 8 ms;
    Deadline => 20 ms;
  end Logger.impl;

  system Board
  end Board;
  system implementation Board.impl
  subcomponents
    cpu     : processor Cpu;
    control : thread Control.impl;
    logger  : thread Logger.impl;
  properties
    Actual_Processor_Binding => reference (cpu) applies to control;
    Actual_Processor_Binding => reference (cpu) applies to logger;
  end Board.impl;
end Quickstart;
)";

int main() {
  using namespace aadlsched;

  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;  // 1 ms quantum

  const core::AnalysisResult result =
      core::analyze_source(kModel, "Board.impl", opts);
  if (!result.diagnostics.empty()) std::cerr << result.diagnostics;
  std::cout << result.summary() << "\n";
  return result.outcome == core::Outcome::Schedulable ? 0 : 1;
}
