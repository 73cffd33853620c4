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
//   * action ≺ tau whenever the tau has priority > 0 — this is what
//     forces dispatches, queue hand-offs and completions to happen at the
//     quantum boundary where they become possible.
//
// Survivors are the maximal elements of the fan, found by a skyline pass
// (Kung, Luccio & Preparata, JACM 1975) rather than by testing every pair:
// one state's Par3 fold can offer ~20k candidate actions (cruise control
// at 1 ms), where an all-pairs loop makes hundreds of millions of tests.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/action.hpp"
#include "acsr/label.hpp"

namespace aadlsched::acsr {

/// True iff `a` is preempted by `b` (a ≺ b).
bool preempted_by(const ActionTable& actions, const Label& a, const Label& b);

/// Working buffers of mark_survivors(). The caller owns them so that a warm
/// call allocates nothing.
struct SkylineScratch {
  struct Entry {
    std::int64_t key = 0;     // taus/events: priority; actions: K (below)
    std::uint64_t group = 0;  // taus: one; events: label and direction;
                              // actions: the id
    std::uint32_t index = 0;  // position in `labels`
    bool negative = false;    // actions: some resource use is below zero
  };
  std::vector<Entry> instants;  // taus and events
  std::vector<Entry> actions;
  std::vector<ActionId> survivors;  // distinct actions kept so far

  std::size_t approx_bytes() const {
    return (instants.capacity() + actions.capacity()) * sizeof(Entry) +
           survivors.capacity() * sizeof(ActionId);
  }
};

/// The preemption loop, on labels alone: keep[i] is set to 1 iff no label
/// of `labels` preempts labels[i], else 0. Equal labels never preempt each
/// other, so whether a label survives does not depend on how often it
/// occurs — which is what lets Semantics prioritize candidate labels before
/// it builds their targets. Returns the number of pairwise ≺ tests made
/// (ActionTable::preempts calls; taus and events are decided by a maximum).
///
/// Per kind:
///   * a tau survives iff its priority is the largest tau priority;
///   * an event survives iff its priority is the largest among the events
///     with its label and direction;
///   * every action is preempted when some tau has priority > 0;
///   * otherwise the actions go through a skyline pass. Each action gets
///     the key K(a) = Σ max(p, 0) over its resource uses (int64, so no
///     int32 priority overflows it). The actions are grouped by K and the
///     groups walked in descending K; an action is tested against the
///     survivors of the higher groups and, if it carries a negative
///     priority, against the other members of its own group.
///
/// Why that is exact for every int32 priority:
///   * ≺ on interned actions is irreflexive and transitive: if a ≺ b ≺ c,
///     the resource where b beats a is in b, and c holds it at a priority
///     >= b's, so c beats a there too.
///   * a ≺ b implies K(a) <= K(b): each resource of a is in b at a priority
///     >= a's, and b's extra resources add >= 0. Strictly <, unless the
///     resource where b beats a has a negative priority in a. (The plain
///     sum Σp is not monotone: {} ≺ {(r1,-5),(r2,1)}, yet 0 > -4.)
///   * A preempted x has a maximal z ≻ x (the fan is finite and ≺ is a
///     strict order). z survives and K(z) >= K(x), so z is a survivor of a
///     higher group, or — only when x has a negative priority — a member
///     of x's own group. Either way x is tested against it.
///
/// Cost: O(n log n + n·s) for n labels and s surviving actions.
std::uint64_t mark_survivors(const ActionTable& actions,
                             std::span<const Label> labels,
                             std::vector<std::uint8_t>& keep,
                             SkylineScratch& scratch);

/// Remove every transition preempted by a sibling. Stable: survivors keep
/// their relative order.
void prioritize(const ActionTable& actions, std::vector<Transition>& ts);

}  // namespace aadlsched::acsr
