// The three workloads and the two ways of running them.
//
//   verify_cruise  core::analyze_source on the Fig. 1 cruise-control model
//                  at a 2 ms quantum, CLI defaults, one client thread.
//   sweep_fleet    exp::run_experiment over a fixed 720-model population,
//                  a fresh in-process Service per pass, two workers.
//   serve_edit     a seeded editor session against server::TcpServer on
//                  loopback: one request in 8 is a new variant (cold), the
//                  rest repeat one of the last 8 variants (memory hits).
//
// run_untraced() measures the end-to-end metrics with no tracing at all.
// run_traced() measures the selected workload untraced for a quarter of the
// time, then every workload's decomposed, span-traced operation for a
// quarter each, and reports the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string ref_exe;   // perfbench_ref, beside perfbench
  std::string work_dir;  // serve_edit cache dirs and trace JSON go here
  bool wrong_oracle = false;  // self-test: flip one expected verdict
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double raw = -1;  // uncorrected value, < 0 when not a timing
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // one line per failing model
  std::vector<Metric> metrics;
  std::vector<std::string> context;  // printed before the JSON line
};

bool known_workload(const std::string& name);
Result run_untraced(const Options& opts);
Result run_traced(const Options& opts);

}  // namespace perfbench
