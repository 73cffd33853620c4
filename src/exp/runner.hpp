// Experiment execution: expand the spec, mass-generate AADL models, fan
// the analyses out, and collect per-run verdicts.
//
// Two backends, one contract:
//   * in-process — a server::Service (the daemon minus the socket) owned by
//     the runner, with `spec.workers` sweep threads that each run their
//     analyses inside it;
//   * daemon — requests submitted over TCP to a running aadlschedd through
//     the shared retry/backoff client (server/client.hpp), `spec.workers`
//     concurrent connections via versa::parallel_sweep.
// Both backends submit byte-identical Request objects built from the same
// generated model text, so the same spec reaches byte-identical verdict
// data either way (exp_smoke.sh pins this). Timing (latency, cache hits)
// is collected separately and is NOT part of the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "server/client.hpp"

namespace aadlsched::exp {

/// One (cell, seed) analysis.
struct RunOutcome {
  std::uint64_t seed = 0;
  /// Workload generation + rendering succeeded (false records the
  /// generator's diagnostic in `error` and never contacts a backend).
  bool generated = false;
  // --- verdict data (deterministic, compared across backends) ------------
  std::string outcome = "error";  // schedulable | not_schedulable | ...
  /// What decided the verdict: "static" (lint screen), the engine name
  /// ("enumerative"/"symbolic"), or "transport" when the daemon was
  /// unreachable.
  std::string decided_by_class = "transport";
  std::string decided_by_ids;  // lint check ids when static, else ""
  double realized_utilization = 0;  // sum C/T of the generated set
  double drift = 0;                 // realized - requested
  // --- timing / transport (nondeterministic) ------------------------------
  double latency_ms = 0;  // service-side served_ms
  bool cached = false;
  bool transport_failed = false;
  std::string error;        // generator/transport/daemon diagnostic
  std::string result_json;  // canonical result object ("" when unreachable)
};

struct CellResult {
  Cell cell;
  std::vector<RunOutcome> runs;  // ordered by seed
};

struct ExperimentResult {
  std::string backend;  // "in-process" | "daemon"
  std::vector<CellResult> cells;
  std::size_t total_runs = 0;
  std::size_t transport_failures = 0;
  double total_ms = 0;  // wall clock across the whole sweep
};

struct DaemonEndpoint {
  std::string host;
  std::uint16_t port = 0;
  server::RetryPolicy retry;
};

/// Deterministic model text for one (cell, seed): generated task set with
/// policy-appropriate priorities, rendered with a provenance header naming
/// the experiment, cell index and seed. Returns nullopt with the
/// generator's diagnostic on an ungenerable spec. Exposed for tests and
/// for --models-dir dumping.
std::optional<std::string> render_model(const ExperimentSpec& spec,
                                        const Cell& cell,
                                        std::size_t cell_index,
                                        std::uint64_t seed,
                                        std::string& error,
                                        double* realized_utilization = nullptr,
                                        double* drift = nullptr);

/// Run the whole experiment. `daemon` nullopt = in-process backend.
/// `progress`, when set, is invoked after every completed run with
/// (done, total) — from worker threads, so it must be thread-safe.
ExperimentResult run_experiment(
    const ExperimentSpec& spec, const std::optional<DaemonEndpoint>& daemon,
    const std::function<void(std::size_t, std::size_t)>& progress = {});

}  // namespace aadlsched::exp
