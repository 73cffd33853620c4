// experiment_report.json rendering (EXPERIMENTS.md E15).
//
// The report separates what is deterministic from what is not:
//   * each cell's "verdicts" object (per-seed outcomes, decided-by
//     breakdown, acceptance fraction, realized utilization) and the
//     top-level realized-utilization "curve" depend only on the spec —
//     exp_smoke.sh asserts they are byte-identical between the in-process
//     and daemon backends;
//   * each cell's "timing" object (latency distribution, cache hits) and
//     the top-level "timing"/"transport" blocks are environmental and
//     excluded from that comparison.
#pragma once

#include <string>

#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace aadlsched::exp {

inline constexpr int kReportSchemaVersion = 2;

/// Render the canonical report document (trailing newline included).
std::string render_report(const ExperimentSpec& spec,
                          const ExperimentResult& result);

}  // namespace aadlsched::exp
