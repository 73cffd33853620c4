// Avionics example: EDF scheduling, sporadic/aperiodic dispatch through
// queues, a device-driven event source, a bus-bound cross-processor
// connection, and an end-to-end latency requirement verified by a
// synthesized observer process (§5).
//
// Usage: avionics [path/to/avionics.aadl]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/analyzer.hpp"

int main(int argc, char** argv) {
  using namespace aadlsched;

  const std::string path =
      argc > 1 ? argv[1] : AADLSCHED_MODELS_DIR "/avionics.aadl";

  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;  // 1 ms quantum
  // End-to-end requirement: a control command issued by ControlLaw must be
  // actuated within 15 ms of the law's dispatch.
  opts.translation.latency_specs.push_back(
      {"law", "actuator", 15'000'000});

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const core::AnalysisResult result =
      core::analyze_source(buf.str(), "Avionics.impl", opts);
  if (!result.diagnostics.empty()) std::cerr << result.diagnostics;

  std::cout << "Avionics system: EDF flight computer + RM I/O processor\n";
  for (const auto& t : result.threads) {
    std::cout << "  " << t.path << "  C=[" << t.cmin << "," << t.cmax
              << "] T=" << t.period << " D=" << t.deadline << " on "
              << t.cpu_resource
              << (t.static_priority == 0
                      ? " (dynamic priority)"
                      : " prio=" + std::to_string(t.static_priority))
              << "\n";
  }
  std::cout << result.summary() << "\n";
  return result.outcome == core::Outcome::Schedulable ? 0 : 1;
}
