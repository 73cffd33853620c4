// Declarative experiment specs for aadlsched-exp, the fleet-scale
// experiment harness (EXPERIMENTS.md E15).
//
// A spec is a JSON document naming a grid of analysis configurations
// (scheduling policy × total utilization × task count × deadline fraction ×
// quantum × engine × processor topology) and a seed range. The harness
// expands the Cartesian product into cells, generates one synthetic AADL
// model per (cell, seed) through sched::generate_workload +
// core::taskset_to_aadl, analyzes every model either in-process or against
// a running aadlschedd, and aggregates acceptance fractions per cell and
// per realized-utilization bin.
//
// Spec format (all grid axes optional; defaults give a 1-point axis):
//
//   {
//     "name": "smoke",
//     "grid": {
//       "policy": ["rm", "edf"],             // rm | dm | edf | llf
//       "utilization": [0.5, 0.9],           // requested total U
//       "task_count": [3, 4],
//       "deadline_fraction": [1.0],          // D = C + f*(T-C)
//       "quantum_ms": [1],
//       "engine": ["enumerative"],           // enumerative | symbolic | auto
//       "processors": [1]                    // partitioned topology width
//     },
//     "seeds": {"begin": 1, "count": 5},
//     "periods": [4, 5, 8, 10, 16, 20],      // quanta; optional
//     "budget": {"max_states": 200000},      // deterministic budgets only
//     "lint": true,
//     "bin_width": 0.1,                      // realized-U curve bins
//     "workers": 1                           // fan-out concurrency
//   }
//
// Wall-clock budgets (deadline_ms) are deliberately NOT part of the spec:
// the harness's contract is that in-process and daemon runs of the same
// spec reach byte-identical verdicts, and only state-count budgets make
// outcomes machine-independent.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/task.hpp"

namespace aadlsched::exp {

struct ExperimentSpec {
  std::string name = "experiment";
  // Grid axes (validated non-empty after defaults apply).
  std::vector<std::string> policies = {"rm"};
  std::vector<double> utilizations = {0.7};
  std::vector<std::size_t> task_counts = {3};
  std::vector<double> deadline_fractions = {1.0};
  std::vector<std::int64_t> quantum_ms = {1};
  std::vector<std::string> engines = {"enumerative"};
  std::vector<int> processors = {1};
  // Seed range: seeds seed_begin .. seed_begin + seed_count - 1 per cell.
  std::uint64_t seed_begin = 1;
  std::uint64_t seed_count = 10;
  // Candidate periods in quanta; empty input is a spec error (the workload
  // generator rejects it — see sched::validate_workload_spec).
  std::vector<sched::Time> periods = {4, 5, 8, 10, 16, 20};
  // Deterministic exploration budget per model.
  std::uint64_t max_states = 200'000;
  bool run_lint = true;
  // Realized-utilization histogram bin width for the acceptance curve.
  double bin_width = 0.1;
  // Fan-out workers (in-process Service pool size / concurrent daemon
  // connections). 0 = hardware concurrency.
  std::size_t workers = 1;
};

/// One point of the expanded grid.
struct Cell {
  std::string policy;
  double utilization = 0;
  std::size_t task_count = 0;
  double deadline_fraction = 1.0;
  std::int64_t quantum_ms = 1;
  std::string engine;
  int processors = 1;
};

/// Parse and validate a spec document. Returns nullopt with a diagnostic in
/// `error` on malformed JSON, unknown keys' values of the wrong shape, an
/// invalid axis value (unknown policy/engine, utilization <= 0, zero task
/// count, deadline fraction outside [0, 1], ...) or a period set the
/// workload generator would reject.
std::optional<ExperimentSpec> parse_experiment_spec(const std::string& text,
                                                    std::string& error);

/// Cartesian product of the grid axes, in spec order (policy outermost,
/// processors innermost). Deterministic: the cell index is part of every
/// generated model's provenance.
std::vector<Cell> expand_grid(const ExperimentSpec& spec);

}  // namespace aadlsched::exp
