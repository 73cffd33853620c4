// Design-space exploration (§1: "efficient exploration of design
// alternatives ... early in the design cycle"): sweep RefSpeed's period
// and Cruise1's worst-case execution time in the cruise-control system and
// chart the schedulable region. Each cell is one full parse -> instantiate
// -> translate -> explore run; cells are independent and run on a thread
// pool.
#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "core/analyzer.hpp"
#include "versa/sweep.hpp"

using namespace aadlsched;

namespace {

std::string load_model() {
  std::ifstream in(AADLSCHED_MODELS_DIR "/cruise_control.aadl");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string with_params(std::string src, int refspeed_period_ms,
                        int cruise1_wcet_ms) {
  const std::string ref_find =
      "    Period => 50 ms;\n"
      "    Compute_Execution_Time => 10 ms .. 10 ms;\n"
      "    Deadline => 50 ms;\n"
      "  end RefSpeed.impl;";
  const std::string ref_repl =
      "    Period => " + std::to_string(refspeed_period_ms) +
      " ms;\n"
      "    Compute_Execution_Time => 10 ms .. 10 ms;\n"
      "    Deadline => " +
      std::to_string(refspeed_period_ms) +
      " ms;\n"
      "  end RefSpeed.impl;";
  auto pos = src.find(ref_find);
  if (pos != std::string::npos) src.replace(pos, ref_find.size(), ref_repl);

  const std::string c1_find =
      "    Compute_Execution_Time => 10 ms .. 20 ms;\n"
      "    Deadline => 50 ms;\n"
      "  end Cruise1.impl;";
  const std::string c1_repl =
      "    Compute_Execution_Time => 10 ms .. " +
      std::to_string(cruise1_wcet_ms) +
      " ms;\n"
      "    Deadline => 50 ms;\n"
      "  end Cruise1.impl;";
  pos = src.find(c1_find);
  if (pos != std::string::npos) src.replace(pos, c1_find.size(), c1_repl);
  return src;
}

}  // namespace

int main() {
  const std::string base = load_model();
  const std::vector<int> periods = {20, 30, 40, 50};   // RefSpeed period, ms
  const std::vector<int> wcets = {10, 20, 30, 40};     // Cruise1 WCET, ms

  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 10'000'000;

  std::vector<int> verdicts(periods.size() * wcets.size(), -1);
  versa::parallel_sweep(verdicts.size(), [&](std::size_t k) {
    const int period = periods[k / wcets.size()];
    const int wcet = wcets[k % wcets.size()];
    const auto r = core::analyze_source(with_params(base, period, wcet),
                                        "CruiseControlSystem.impl", opts);
    verdicts[k] = r.outcome == core::Outcome::Schedulable ? 1 : 0;
  });

  std::cout << "Schedulable region (rows: RefSpeed period; cols: Cruise1 "
               "WCET, ms)\n        ";
  for (int w : wcets) std::cout << w << "\t";
  std::cout << "\n";
  for (std::size_t i = 0; i < periods.size(); ++i) {
    std::cout << "T=" << periods[i] << "ms\t";
    for (std::size_t j = 0; j < wcets.size(); ++j)
      std::cout << (verdicts[i * wcets.size() + j] ? "yes" : "NO") << "\t";
    std::cout << "\n";
  }
  return 0;
}
