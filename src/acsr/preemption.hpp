// The preemption relation and the prioritized transition relation (§3).
//
// The unprioritized relation offers every structurally possible step; the
// prioritized relation removes each transition that is preempted by a
// sibling:
//   * action A1 ≺ action A2 — ActionTable::preempts (resource-wise
//     domination with one strict inequality);
//   * event e ≺ event e' — same label and direction, strictly higher
//     priority;
//   * tau ≺ tau — strictly higher priority (all taus share the label tau);
//   * action ≺ tau whenever the tau has non-zero priority — this is what
//     forces dispatches, queue hand-offs and completions to happen at the
//     quantum boundary where they become possible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/action.hpp"
#include "acsr/label.hpp"

namespace aadlsched::acsr {

/// True iff `a` is preempted by `b` (a ≺ b).
bool preempted_by(const ActionTable& actions, const Label& a, const Label& b);

/// The preemption loop, on labels alone: keep[i] is set to 1 iff no label
/// of `labels` preempts labels[i], else 0. Each label is checked against
/// the full set, preempted ones included. Equal labels never preempt each
/// other, so whether a label survives does not depend on how often it
/// occurs — which is what lets Semantics prioritize candidate labels before
/// it builds their targets.
void mark_survivors(const ActionTable& actions, std::span<const Label> labels,
                    std::vector<std::uint8_t>& keep);

/// Remove every transition preempted by a sibling. Stable: survivors keep
/// their relative order.
void prioritize(const ActionTable& actions, std::vector<Transition>& ts);

}  // namespace aadlsched::acsr
