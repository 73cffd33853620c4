// Two well-formedness invariants of an ACSR process network, checked over
// the translator's output in tests (they were lint passes AL010 and AL011
// until an audit found that no model the translator accepts can trip
// them, DESIGN.md §9):
//
//   * unguarded_recursion finds definitions that reach themselves without
//     an intervening action or event prefix — unguarded recursion makes
//     call unfolding diverge during exploration. The translator guards
//     every recursive call with a timed action or an event.
//   * par3_conflicts finds parallel compositions whose components can
//     never satisfy the Par3 disjoint-resource rule: when *every* timed
//     action of two siblings shares a resource, no joint timed step ever
//     exists and time cannot pass (a timelock). The must-use set is an
//     intersection over all reachable actions, so guards/choices only
//     shrink it — the check under-approximates and never reports a false
//     conflict. Every translated component can idle, so its must-use set
//     is empty.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "acsr/context.hpp"

namespace aadlsched::acsr_invariants {

using acsr::Context;
using acsr::DefId;
using acsr::OpenKind;
using acsr::OpenTermId;
using acsr::OpenTermNode;

/// Definitions callable from `id` without passing an Act or Evt prefix.
/// Scope handlers only run after an event or the timeout, so they count as
/// guarded; the Scope body starts immediately and does not.
inline void unguarded_calls(const Context& ctx, OpenTermId id,
                            std::set<DefId>& out) {
  if (id == acsr::kInvalidOpenTerm) return;
  const OpenTermNode& n = ctx.open(id);
  switch (n.kind) {
    case OpenKind::Nil:
    case OpenKind::Act:
    case OpenKind::Evt:
      return;
    case OpenKind::Choice:
    case OpenKind::Parallel:
      for (OpenTermId c : n.children) unguarded_calls(ctx, c, out);
      return;
    case OpenKind::Restrict:
    case OpenKind::Cond:
    case OpenKind::Scope:
      unguarded_calls(ctx, n.cont, out);
      return;
    case OpenKind::Call:
      out.insert(n.def);
      return;
  }
}

/// Names of the definitions that can unfold back into themselves.
inline std::vector<std::string> unguarded_recursion(const Context& ctx) {
  const std::size_t n = ctx.definition_count();
  std::vector<std::set<DefId>> succ(n);
  for (std::size_t d = 0; d < n; ++d) {
    const acsr::Definition& def = ctx.definition(static_cast<DefId>(d));
    if (def.body != acsr::kInvalidOpenTerm)
      unguarded_calls(ctx, def.body, succ[d]);
  }
  // DFS the unguarded-call graph from each definition.
  std::vector<std::string> out;
  for (std::size_t d = 0; d < n; ++d) {
    std::set<DefId> seen;
    std::vector<DefId> stack(succ[d].begin(), succ[d].end());
    bool cyclic = false;
    while (!stack.empty() && !cyclic) {
      const DefId cur = stack.back();
      stack.pop_back();
      if (cur == static_cast<DefId>(d)) {
        cyclic = true;
        break;
      }
      if (!seen.insert(cur).second) continue;
      if (cur < n)
        for (DefId nx : succ[cur]) stack.push_back(nx);
    }
    if (cyclic) out.push_back(ctx.definition(static_cast<DefId>(d)).name);
  }
  return out;
}

/// Collect the resource sets of every Act reachable from `id`, following
/// calls (each definition visited once).
inline void collect_action_sets(const Context& ctx, OpenTermId id,
                                std::set<DefId>& seen_defs,
                                std::vector<std::set<acsr::Resource>>& out) {
  if (id == acsr::kInvalidOpenTerm) return;
  const OpenTermNode& n = ctx.open(id);
  switch (n.kind) {
    case OpenKind::Nil:
      return;
    case OpenKind::Act: {
      std::set<acsr::Resource> rs;
      for (const acsr::OpenResourceUse& u : n.action) rs.insert(u.resource);
      out.push_back(std::move(rs));
      collect_action_sets(ctx, n.cont, seen_defs, out);
      return;
    }
    case OpenKind::Evt:
    case OpenKind::Restrict:
    case OpenKind::Cond:
      collect_action_sets(ctx, n.cont, seen_defs, out);
      return;
    case OpenKind::Choice:
    case OpenKind::Parallel:
      for (OpenTermId c : n.children)
        collect_action_sets(ctx, c, seen_defs, out);
      return;
    case OpenKind::Scope:
      collect_action_sets(ctx, n.cont, seen_defs, out);
      collect_action_sets(ctx, n.exception_cont, seen_defs, out);
      collect_action_sets(ctx, n.interrupt_handler, seen_defs, out);
      collect_action_sets(ctx, n.timeout_handler, seen_defs, out);
      return;
    case OpenKind::Call: {
      if (n.def == acsr::kInvalidDef) return;
      if (!seen_defs.insert(n.def).second) return;
      collect_action_sets(ctx, ctx.definition(n.def).body, seen_defs, out);
      return;
    }
  }
}

/// Resources used by *every* reachable timed action of the term (empty when
/// the term has no timed action, or some action needs no resource).
inline std::set<acsr::Resource> must_use(const Context& ctx, OpenTermId id) {
  std::set<DefId> seen;
  std::vector<std::set<acsr::Resource>> sets;
  collect_action_sets(ctx, id, seen, sets);
  if (sets.empty()) return {};
  std::set<acsr::Resource> acc = sets.front();
  for (std::size_t i = 1; i < sets.size() && !acc.empty(); ++i) {
    std::set<acsr::Resource> next;
    for (acsr::Resource r : acc)
      if (sets[i].count(r)) next.insert(r);
    acc = std::move(next);
  }
  return acc;
}

inline void find_parallels(const Context& ctx, OpenTermId id,
                           std::set<OpenTermId>& seen,
                           std::vector<OpenTermId>& out) {
  if (id == acsr::kInvalidOpenTerm || !seen.insert(id).second) return;
  const OpenTermNode& n = ctx.open(id);
  if (n.kind == OpenKind::Parallel && n.children.size() >= 2)
    out.push_back(id);
  for (OpenTermId c : n.children) find_parallels(ctx, c, seen, out);
  find_parallels(ctx, n.cont, seen, out);
  if (n.kind == OpenKind::Scope) {
    find_parallels(ctx, n.exception_cont, seen, out);
    find_parallels(ctx, n.interrupt_handler, seen, out);
    find_parallels(ctx, n.timeout_handler, seen, out);
  }
}

struct Par3Conflict {
  std::string definition;  // the definition holding the Parallel
  std::size_t left = 0, right = 0;  // sibling indices
  std::string resource;    // one resource both always use
};

/// Sibling pairs of every Parallel that each use a common resource in every
/// timed action (one entry per pair).
inline std::vector<Par3Conflict> par3_conflicts(const Context& ctx) {
  std::vector<Par3Conflict> out;
  for (std::size_t d = 0; d < ctx.definition_count(); ++d) {
    const acsr::Definition& def = ctx.definition(static_cast<DefId>(d));
    if (def.body == acsr::kInvalidOpenTerm) continue;
    std::set<OpenTermId> seen;
    std::vector<OpenTermId> pars;
    find_parallels(ctx, def.body, seen, pars);
    for (OpenTermId pid : pars) {
      const OpenTermNode& par = ctx.open(pid);
      std::vector<std::set<acsr::Resource>> musts;
      for (OpenTermId c : par.children) musts.push_back(must_use(ctx, c));
      for (std::size_t i = 0; i < musts.size(); ++i) {
        for (std::size_t j = i + 1; j < musts.size(); ++j) {
          for (acsr::Resource r : musts[j]) {
            if (!musts[i].count(r)) continue;
            out.push_back({def.name, i, j, ctx.resource_name(r)});
            break;
          }
        }
      }
    }
  }
  return out;
}

}  // namespace aadlsched::acsr_invariants
