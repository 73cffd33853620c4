// State-space reduction layer shared by both explorers (DESIGN.md §13).
//
// Two reductions, both driven by the symmetry groups the translator detects
// (translate::SymmetrySpec) and both provably inert on the default
// ordered-instants translation, where the groups are empty by construction:
//
//   * Symmetry canonicalization. Interchangeable thread instances (same
//     processor, protocol, timing, priorities, private event footprint)
//     make states that differ only by a role permutation bisimilar. Before
//     visited-set dedup every successor is rewritten to a canonical orbit
//     representative: the parallel children owned by each role are renamed
//     into role 0's namespace (a neutral signature), the signatures are
//     sorted, and the sorted occupants are renamed back into consecutive
//     role namespaces. π-related states reach the same representative, so
//     the explorer visits one state per orbit.
//
//   * Commutation (partial-order) linearization. This generalizes the
//     ordered-instants trick: when a state's entire prioritized fan is
//     equal-priority taus whose movers (the parallel children they change)
//     belong to distinct symmetry roles, the taus touch disjoint,
//     non-communicating components and every interleaving converges to the
//     same end-of-instant state through intermediate states that always
//     keep the remaining taus enabled. The fan is pruned to its least
//     member — but only after *verifying* dynamically that the successor's
//     prioritized fan is exactly the predicted residual set (same labels,
//     targets shifted by the remaining movers). Anything unexpected — an
//     emergent transition, a priority change, a reshaped composition —
//     fails the check and the full fan is kept. The verification repeats
//     at every step of the kept chain.
//
// The Reducer belongs to one exploration run (its memo tables are not
// synchronized); the SymmetryModel is immutable after build().
// Canonicalization interns new terms into the run's Context.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "acsr/semantics.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::versa {

struct ReductionOptions {
  bool symmetry = true;
  bool commute = true;

  bool any() const { return symmetry || commute; }
};

/// Resolved, id-level description of the interchangeable-thread groups.
/// Built from mangled role names (the form the translator reports and the
/// checkpoint serializes) by looking the per-role definitions
/// ("T_<role>_*", "D_<role>_*") and events ("dispatch_<role>",
/// "done_<role>") up in the Context, so it can be reconstructed against a
/// checkpoint-restored Context that never saw a Translation.
class SymmetryModel {
 public:
  struct Group {
    std::vector<std::string> roles;  // mangled thread names, size >= 2
    /// defs_by_kind[k][r]: the role-r definition of shape k (one shape per
    /// distinct name suffix, e.g. "T_*_Compute"). All rows are complete —
    /// a group missing a sibling definition is dropped at build time.
    std::vector<std::vector<acsr::DefId>> defs_by_kind;
    /// events_by_kind[k][r]: kind 0 = dispatch_<role>, 1 = done_<role>.
    std::vector<std::vector<acsr::Event>> events_by_kind;
  };

  /// Reverse index entry: which (group, shape, role) an id belongs to.
  struct Tag {
    std::int32_t group = -1;
    std::int32_t kind = -1;
    std::int32_t role = -1;
  };

  SymmetryModel() = default;

  static SymmetryModel build(
      acsr::Context& ctx,
      const std::vector<std::vector<std::string>>& role_groups,
      bool uniform_dispatch);

  /// The reducer engages only for uniform-instant translations with at
  /// least one resolved group; otherwise canonical() is the identity and
  /// linearize() a no-op, and exploration output is bit-identical to a run
  /// without the layer.
  bool active() const { return uniform_dispatch_ && !groups_.empty(); }
  bool uniform_dispatch() const { return uniform_dispatch_; }
  const std::vector<Group>& groups() const { return groups_; }

  const Tag* def_tag(acsr::DefId d) const { return def_tags_.find(d); }
  const Tag* event_tag(acsr::Event e) const { return event_tags_.find(e); }

  /// Role names per group, for checkpoint serialization.
  std::vector<std::vector<std::string>> role_names() const;

 private:
  std::vector<Group> groups_;
  bool uniform_dispatch_ = false;
  util::FlatIdMap<Tag> def_tags_;
  util::FlatIdMap<Tag> event_tags_;
};

/// Per-run reduction state: memoized canonicalization and the commutation
/// rule. Constructed against the run's Semantics (whose Context it
/// rebuilds terms in).
class Reducer {
 public:
  struct Stats {
    /// Distinct raw states folded into a different canonical
    /// representative — states a reduction-free run would have visited.
    std::uint64_t states_saved = 0;
    /// Expansions whose fan the commutation rule linearized.
    std::uint64_t commuted_expansions = 0;
    /// Transitions pruned by those linearizations.
    std::uint64_t pruned_transitions = 0;
  };

  Reducer(acsr::Semantics& sem, const SymmetryModel* model,
          ReductionOptions opts)
      : sem_(sem), model_(model), opts_(opts) {}

  bool active() const { return model_ && model_->active() && opts_.any(); }

  /// Canonical representative of t's symmetry orbit (t when inactive).
  acsr::TermId canonical(acsr::TermId t);

  /// Prune `fan` (the prioritized fan of s) to its least member when the
  /// verified pure-commuter conditions hold; otherwise leave it untouched.
  void linearize(acsr::TermId s, std::vector<acsr::Transition>& fan);

  const Stats& stats() const { return stats_; }

 private:
  // Encoded owner of a term: which (group, role) its defs/events belong
  // to. kOwnerNone = no group ids at all; kOwnerMixed = more than one
  // role — such a term is never touched by the reductions.
  static constexpr std::uint32_t kOwnerNone = 0xFFFFFFFEu;
  static constexpr std::uint32_t kOwnerMixed = 0xFFFFFFFDu;

  std::uint32_t owner_encoded(acsr::TermId t);
  acsr::TermId canon_compute(acsr::TermId t);
  acsr::TermId rename(acsr::TermId t, std::int32_t group, std::int32_t from,
                      std::int32_t to);

  acsr::Semantics& sem_;
  const SymmetryModel* model_;
  ReductionOptions opts_;
  Stats stats_;
  util::FlatIdMap<acsr::TermId> canon_memo_;
  util::FlatIdMap<std::uint32_t> owner_memo_;
  // Key packs (term, group, from, to) exactly — no collisions.
  std::unordered_map<std::uint64_t, acsr::TermId> rename_memo_;
};

}  // namespace aadlsched::versa
