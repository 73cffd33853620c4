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
// Rows, labels first: every state of a translated model is
// Restrict(F, Parallel(c₁…c_k)), and whether a step is preempted depends
// only on its label. expand_row() takes such a state as its restriction and
// its component row, builds the candidate labels with their per-component
// choices, drops the preempted ones, and hands each survivor's target row
// (flattened and sorted, as TermTable::parallel normalizes it) to a RowSink,
// which names it: the explorer's state table gives it a state number
// (versa/explorer.hpp), the term sink interns it as a Restrict/Parallel
// term. prioritized() on a Parallel or Restrict(Parallel) term is
// expand_row() with the term sink, and transitions() on a Parallel runs the
// same candidate generator with every candidate kept, so the Par rules
// exist once (DESIGN.md §13).
//
// Shape memo: which candidates such a state has, and which survive, depends
// only on the restriction and on the label sequence of each component's
// fan — its signature, interned once per fan. expand_row() keys each
// expansion by (restriction, signatures) and records the survivors' labels
// with their choices: per component, the position of the transition it
// takes in its fan, or "stays". A repeat shape skips the Par1/2/4
// generator, the Par3 fold and the skyline, and builds the same target rows
// in the same order (DESIGN.md §13).
//
// One expansion can be huge: the Par3 fold is exponential in the number of
// components offering several timed steps. With a budget attached, the
// labels-first fold polls it every kPollPartials partials and abandons the
// expansion on a trip, before any row reaches the sink; a shape hit whose
// fold built that many polls once (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "acsr/context.hpp"
#include "acsr/label.hpp"
#include "acsr/preemption.hpp"
#include "util/budget.hpp"
#include "util/flat_set.hpp"
#include "util/span_table.hpp"

namespace aadlsched::acsr {

class Semantics {
 public:
  struct Stats {
    // Memoized fans: terms whose fan was computed, and fans served from
    // the memo. A labels-first expansion is not in the fan memo; its
    // children are.
    std::uint64_t computed = 0;
    std::uint64_t memo_hits = 0;
    // Hot-loop fan sizes of the states prioritized() expanded: labels
    // generated before preemption, and targets kept (interned) after it.
    // A shape hit adds the counts its shape recorded, so these describe
    // the fans whether or not the fold ran, and candidates >= kept.
    std::uint64_t candidates = 0;
    std::uint64_t kept = 0;
    // Work only shape misses do: pairwise preemption tests made by
    // mark_survivors(), and Par3 partials built by the fold (a component
    // offering exactly one idle step opens no level and builds none).
    std::uint64_t preempt_checks = 0;
    std::uint64_t fold_partials = 0;
    // Labels-first expansions served from the shape memo.
    std::uint64_t shape_hits = 0;

    /// The work done between two snapshots (`after - before`).
    friend Stats operator-(Stats a, const Stats& b) {
      a.computed -= b.computed;
      a.memo_hits -= b.memo_hits;
      a.candidates -= b.candidates;
      a.kept -= b.kept;
      a.preempt_checks -= b.preempt_checks;
      a.fold_partials -= b.fold_partials;
      a.shape_hits -= b.shape_hits;
      return a;
    }
  };

  /// Partials the labels-first Par3 fold builds between two budget polls.
  static constexpr std::size_t kPollPartials = 4096;

  /// expand_row() restriction of a bare Parallel.
  static constexpr EventSetId kNoRestriction = static_cast<EventSetId>(-1);

  /// Names the target rows of expand_row(). A row is sorted and holds no
  /// Parallel component; [kNil] stands for NIL, the target whose components
  /// are all NIL. intern() is called once per survivor, in candidate order,
  /// and must give equal rows equal ids. Targets with the same label sort by
  /// id, so ids must grow in first-intern order for the fan to come out in
  /// the order the term sink gives it.
  class RowSink {
   public:
    virtual std::uint32_t intern(std::span<const TermId> row) = 0;

   protected:
    ~RowSink() = default;
  };

  /// memoize=false exists for the ablation bench and the differential
  /// tests: exploration with it is identical, but it recomputes every fan
  /// and folds every expansion (no fan memo, no shape memo).
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

  /// Prioritized fan of the state with components `row` (sorted, at least
  /// two, none a Parallel) under `restriction` (kNoRestriction: a bare
  /// Parallel), into `out` in canonical order, each target the id `sink`
  /// gave its row. `row` must stay valid while the sink interns. Returns
  /// false, having called the sink for no row, when the budget tripped;
  /// otherwise as prioritized().
  bool expand_row(EventSetId restriction, std::span<const TermId> row,
                  RowSink& sink, std::vector<Transition>& out);

  const Stats& stats() const { return stats_; }
  Context& context() { return ctx_; }

  /// Budget polled inside one labels-first expansion (not owned; null
  /// detaches). BudgetTracker::check_mid_expansion() decides.
  void set_budget(util::BudgetTracker* budget) { budget_ = budget; }
  /// The poll that made the last prioritized() call return false.
  const util::BudgetStatus& interruption() const { return interruption_; }

  /// Approximate footprint of the fan memo (fan blocks + index), of the
  /// signature and shape tables, and of the candidate, fold and skyline
  /// scratch. The memory budget estimate adds this on top of
  /// Context::approx_bytes(), so the memos grow under its watch.
  std::size_t approx_bytes() const;

 private:
  using Fan = std::span<const Transition>;
  /// A choice row entry: the component keeps its current term.
  static constexpr std::uint32_t kStays = 0xFFFFFFFF;
  static constexpr std::uint32_t kNoSignature = 0xFFFFFFFF;

  /// `signature`: when non-null, receives the id of the fan's label
  /// sequence (memoize only), computed once per fan memo entry.
  Fan fan(TermId t, std::uint32_t* signature = nullptr);
  void compute(TermId t);
  std::uint32_t intern_signature(Fan f);
  /// Candidates of a Parallel whose child fans are fans[0..n): fills
  /// cand_labels_ and cand_choices_. `labels_first`: called by
  /// prioritized() for the expanded state, so the fold polls the budget
  /// and counts its partials. False when the budget tripped inside the
  /// fold (never for a nested Parallel: its fan is memoized, so it must be
  /// built whole).
  bool parallel_candidates(const Fan* fans, std::size_t n,
                           EventSetId restricted, bool labels_first);
  /// Record the survivors of the last labels-first parallel_candidates()
  /// call, compacted in cand_labels_/cand_choices_, under the key in
  /// shape_key_; kFlatEmptySlot when the key or an offset would not fit.
  std::uint32_t record_shape(std::size_t n, std::size_t candidates);
  /// Append one transition per label: the target row moves each component
  /// of `kids` as the label's n-wide choice row says (Choice(-1) = stays),
  /// and `sink` names it.
  template <typename Choice>
  void materialize(std::span<const TermId> kids, const Fan* fans,
                   std::span<const Label> labels, const Choice* choices,
                   RowSink& sink, std::vector<Transition>& out);
  bool poll_budget();
  Fan store(Fan f);
  void rewind();

  Context& ctx_;
  bool memoize_;
  Stats stats_;
  util::BudgetTracker* budget_ = nullptr;
  util::BudgetStatus interruption_;

  // Fans live in blocks that are never reallocated, so a Fan view stays
  // valid while more fans are stored; the memo, indexed by TermId, holds a
  // term's view and its signature. The term table holds components, not
  // explored states, so a dense memo stays small. Without the memo the
  // blocks are rewound at every public call: a view only has to outlive
  // the call that made it.
  std::vector<std::vector<Transition>> blocks_;
  std::size_t block_ = 0;
  static constexpr std::uint32_t kNoFan = 0xFFFFFFFF;
  struct FanEntry {
    const Transition* data = nullptr;
    std::uint32_t size = kNoFan;  // kNoFan: not computed yet
    std::uint32_t signature = kNoSignature;
  };
  static_assert(sizeof(FanEntry) == 16);
  std::vector<FanEntry> memo_;

  // Signatures: signature s is the label sequence of signatures_[s], the
  // first memoized fan that had it.
  std::vector<Fan> signatures_;
  util::FlatHashIndex signature_index_;

  // Shapes: the key of shape s is shape_keys_[s] = restriction, then one
  // signature per component. Its survivors, in candidate order, are
  // kept_labels_[kept_at, kept_at + kept), each with a one-per-component
  // choice row in kept_choices_ from choices_at (0xFFFF = stays). A shape
  // is recorded only when its key fits a chunk and every fan position and
  // every offset fits.
  struct Shape {
    std::uint32_t kept_at;
    std::uint32_t choices_at;
    std::uint32_t candidates;  // labels the generator built
    std::uint32_t kept : 31;
    std::uint32_t poll : 1;  // the fold built >= kPollPartials partials
  };
  static_assert(sizeof(Shape) == 16);
  util::SpanTable<std::uint32_t> shape_keys_;
  std::vector<Shape> shapes_;
  std::vector<Label> kept_labels_;
  std::vector<std::uint16_t> kept_choices_;

  // Scratch reused across calls so a warm expansion allocates nothing.
  // out_ and kid_fans_ are stacks (nested fan() calls push above their
  // caller's entries); the candidate buffers are used only between
  // collecting a Parallel's child fans and interning its targets, where
  // nothing recurses. prioritized() on any other term fills cand_labels_
  // with its fan's labels.
  std::vector<Transition> out_;
  std::vector<Fan> kid_fans_;
  std::vector<Label> cand_labels_;           // candidate k's label ...
  std::vector<std::uint32_t> cand_choices_;  // ... and its n-wide choices
  std::vector<TermId> row_;                  // materialize()'s target row
  std::vector<TermId> flat_;                 // ... and its flattening
  std::vector<std::uint32_t> shape_key_;     // the expanded state's key
  // A Par3 partial: the union of the timed steps chosen so far, the
  // partial of the previous level it extends, and the position in its own
  // level's component fan of the step it takes. Levels lie back to back
  // in partials_.
  struct Partial {
    ActionId action;
    std::uint32_t parent;
    std::uint32_t choice;
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
