// Operational semantics of ground ACSR terms.
//
// transitions() implements the unprioritized relation:
//   Act:      A:P            --A-->    P
//   Evt:      (e!,p).P       --e!,p--> P             (likewise e?)
//   Choice:   union of the summands' transitions
//   Parallel: events interleave (Par1/Par2); matching send/receive pairs
//             synchronize into tau with the sum of the priorities (Par4);
//             timed actions of *all* components combine into one global
//             action when their resource sets are pairwise disjoint (Par3 —
//             time is global, nobody is left behind)
//   Restrict: blocks restricted events from crossing, forcing partners to
//             synchronize inside; taus and timed actions pass
//   Scope:    timed steps of the body decrement the remaining time (hitting
//             0 yields the timeout handler); body events pass without
//             consuming time; the exception label exits to the exception
//             continuation; an interrupt handler's initial transitions stay
//             enabled throughout (§3)
//   Call:     transitions of the memoized unfolding of the definition
//
// prioritized() applies the preemption relation of preemption.hpp on top —
// that is the relation the explorer walks, and the one for which
// "deadlock <=> missed deadline" holds for translated AADL models (§5).
//
// Labels first: whether a step is preempted depends only on its label, so
// on a Parallel state (or a Restrict around one — every translated model's
// state) prioritized() builds the candidate labels with their per-component
// choices, drops the preempted ones, and interns targets only for the
// survivors. transitions() runs the same candidate generator and interns
// every candidate (DESIGN.md §13).
//
// One expansion can be huge: the Par3 fold is exponential in the number of
// components offering several timed steps. With a budget attached, the
// labels-first fold polls it every kPollPartials partials and abandons the
// expansion on a trip (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/context.hpp"
#include "acsr/label.hpp"
#include "acsr/preemption.hpp"
#include "util/budget.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

class Semantics {
 public:
  struct Stats {
    // Memoized fans: terms whose fan was computed, and fans served from
    // the memo. A labels-first expansion is not memoized; its children are.
    std::uint64_t computed = 0;
    std::uint64_t memo_hits = 0;
    // Hot-loop fan sizes of the states prioritized() expanded: labels
    // generated before preemption, and targets kept (interned) after it.
    std::uint64_t candidates = 0;
    std::uint64_t kept = 0;
    // Pairwise preemption tests mark_survivors() made for those states.
    std::uint64_t preempt_checks = 0;
    // Par3 partials their folds built (a component offering exactly one
    // idle step opens no level and builds none).
    std::uint64_t fold_partials = 0;
  };

  /// Partials the labels-first Par3 fold builds between two budget polls.
  static constexpr std::size_t kPollPartials = 4096;

  /// memoize=false exists only for the ablation bench; exploration with it
  /// is identical but recomputes every fan.
  explicit Semantics(Context& ctx, bool memoize = true)
      : ctx_(ctx), memoize_(memoize) {}
  // The memo holds views into this object's own fan blocks.
  Semantics(const Semantics&) = delete;
  Semantics& operator=(const Semantics&) = delete;

  /// Unprioritized transition fan (copy; safe across further calls).
  std::vector<Transition> transitions(TermId t);

  /// Prioritized fan into `out` (cleared first): unprioritized minus
  /// preempted transitions, in canonical order. Reusing `out` across calls
  /// makes a warm call allocation-free. Returns false, with `out` empty,
  /// when the attached budget tripped mid-expansion; interruption() says
  /// why. The memo is unaffected, so the same call can be repeated.
  bool prioritized(TermId t, std::vector<Transition>& out);
  std::vector<Transition> prioritized(TermId t) {
    std::vector<Transition> out;
    prioritized(t, out);
    return out;
  }

  const Stats& stats() const { return stats_; }
  Context& context() { return ctx_; }

  /// Budget polled inside one labels-first expansion (not owned; null
  /// detaches). BudgetTracker::check_mid_expansion() decides.
  void set_budget(util::BudgetTracker* budget) { budget_ = budget; }
  /// The poll that made the last prioritized() call return false.
  const util::BudgetStatus& interruption() const { return interruption_; }

  /// Approximate footprint of the fan memo (fan blocks + index) and of the
  /// candidate, fold and skyline scratch. The memory budget estimate adds
  /// this on top of Context::approx_bytes(); before it did, memo-heavy runs
  /// under-counted by the whole fan table.
  std::size_t approx_bytes() const;

 private:
  using Fan = std::span<const Transition>;

  Fan fan(TermId t);
  void compute(TermId t);
  /// `labels_first`: called by prioritized() for the expanded state, so
  /// the fold polls the budget and counts its partials. False when the
  /// budget tripped inside the fold (never for a nested Parallel: its fan
  /// is memoized, so it must be built whole).
  bool parallel_candidates(TermId par, EventSetId restricted,
                           bool labels_first);
  Fan store(Fan f);
  void rewind();

  Context& ctx_;
  bool memoize_;
  Stats stats_;
  util::BudgetTracker* budget_ = nullptr;
  util::BudgetStatus interruption_;

  // Fans live in blocks that are never reallocated, so a Fan view stays
  // valid while more fans are stored; the memo maps a term to its view.
  // Without the memo the blocks are rewound at every public call: a view
  // only has to outlive the call that made it.
  std::vector<std::vector<Transition>> blocks_;
  std::size_t block_ = 0;
  util::FlatIdMap<Fan> memo_;

  // Scratch reused across calls so a warm expansion allocates nothing.
  // out_ and kid_fans_ are stacks (nested fan() calls push above their
  // caller's entries); the candidate buffers are used only between
  // collecting a Parallel's child fans and interning its targets, where
  // nothing recurses. prioritized() on any other term fills cand_labels_
  // with its fan's labels.
  std::vector<Transition> out_;
  std::vector<Fan> kid_fans_;
  std::vector<Label> cand_labels_;  // candidate k's label ...
  std::vector<TermId> cand_rows_;   // ... and its n-wide component row
  // A Par3 partial: the union of the timed steps chosen so far, the
  // partial of the previous level it extends, and the target its own
  // level's component moves to. Levels lie back to back in partials_.
  struct Partial {
    ActionId action;
    std::uint32_t parent;
    TermId target;
  };
  std::vector<Partial> partials_;
  std::vector<std::uint32_t> level_kid_;  // component of each fold level
  // Per component of the Parallel being expanded: where its fan's timed
  // steps end and where its event offers end (fans are canonical, so
  // actions, events and taus are contiguous in that order).
  struct Offers {
    std::uint32_t timed_end;
    std::uint32_t events_end;
  };
  std::vector<Offers> offers_;
  std::vector<std::uint8_t> keep_;  // mark_survivors() output
  SkylineScratch skyline_;
};

}  // namespace aadlsched::acsr
