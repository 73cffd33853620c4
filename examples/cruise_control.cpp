// End-to-end reproduction of the paper's running example (Figure 1): the
// cruise-control system with two processors, a bus, and six periodic
// threads. Translates the AADL model to ACSR, explores the state space and
// prints the verdict — plus the translated ACSR module, the paper's
// "input of the VERSA tool" (§5).
//
// Usage: cruise_control [path/to/cruise_control.aadl] [--acsr]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/analyzer.hpp"

int main(int argc, char** argv) {
  std::string path = AADLSCHED_MODELS_DIR "/cruise_control.aadl";
  bool dump_acsr = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--acsr")
      dump_acsr = true;
    else
      path = arg;
  }

  using namespace aadlsched;

  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 10'000'000;  // 10 ms quantum

  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  if (dump_acsr) {
    util::DiagnosticEngine diags(path);
    const std::string_view source = text;
    const auto loaded =
        core::load_model({&source, 1}, "CruiseControlSystem.impl", diags);
    const std::string acsr =
        loaded ? core::render_acsr(*loaded->instance, opts.translation, diags)
               : std::string();
    if (acsr.empty()) {
      std::cerr << diags.render_all();
      return 1;
    }
    std::cout << acsr;
    return 0;
  }

  const core::AnalysisResult result =
      core::analyze_source(text, "CruiseControlSystem.impl", opts);
  if (!result.diagnostics.empty()) std::cerr << result.diagnostics;
  std::cout << "Cruise control system (Fig. 1), quantum = 10 ms\n";
  std::cout << "threads:\n";
  for (const auto& t : result.threads) {
    std::cout << "  " << t.path << "  C=[" << t.cmin << "," << t.cmax
              << "] T=" << t.period << " D=" << t.deadline
              << " prio=" << t.static_priority << " on " << t.cpu_resource
              << "\n";
  }
  std::cout << result.summary() << "\n";
  return result.outcome == core::Outcome::Schedulable ? 0 : 1;
}
