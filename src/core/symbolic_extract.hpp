// AADL front door of the symbolic engine: decide whether an instance model
// falls inside the state-class fragment (DESIGN.md §16) and, when it does,
// extract the exact-nanosecond task network versa::explore_symbolic
// analyzes. The versa layer stays AADL-free — this is the only bridge.
//
// The fragment is checked structurally, never guessed: every violated
// precondition produces a human-readable reason, so `--engine auto` can
// report *why* it fell back to enumeration. The preconditions mirror what
// the enumerator's translation does for the same constructs, so on models
// inside the fragment the two engines analyze the same semantics:
//
//   * every thread periodic, bound, with a constrained deadline (D <= T);
//   * static-priority scheduling (RM / DM / HPF) with distinct effective
//     priorities per processor — translate::assign_priorities, the
//     translator's own rule, over raw nanosecond keys (quanta and
//     nanoseconds order identically whenever the quantum divides the
//     parameters);
//   * committed interval demands (the LateCompletion time model is out);
//   * no buses on connections, no event-driven threads, no devices, no
//     latency observers — connection kinds the translator provably
//     ignores for timing (data ports between periodic threads) stay in.
#pragma once

#include <string>
#include <vector>

#include "aadl/instance.hpp"
#include "translate/translator.hpp"
#include "versa/symbolic.hpp"

namespace aadlsched::core {

struct SymbolicExtraction {
  bool applicable = false;
  /// Why the model is outside the fragment (empty when applicable).
  std::vector<std::string> reasons;
  /// The extracted task network; meaningful only when applicable.
  versa::SymbolicModel model;

  /// The reasons joined into one diagnostic line.
  std::string why() const;
};

/// Check applicability and extract. `topts` contributes the translation
/// options that are part of the fragment (execution-time model, latency
/// observers); the quantum is irrelevant — extraction is quantum-free.
SymbolicExtraction extract_symbolic(const aadl::InstanceModel& instance,
                                    const translate::TranslateOptions& topts);

}  // namespace aadlsched::core
