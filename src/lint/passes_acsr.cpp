// ACSR well-formedness passes (AL010..AL012): checks over the translated
// (or hand-built) process algebra.
//
//   * AL010 finds definitions that reach themselves without an intervening
//     action or event prefix — unguarded recursion makes call unfolding
//     diverge during exploration.
//   * AL011 finds parallel compositions whose components can never satisfy
//     the Par3 disjoint-resource rule: when *every* timed action of two
//     siblings shares a resource, no joint timed step ever exists and time
//     cannot pass (a timelock). The must-use set is an intersection over
//     all reachable actions, so guards/choices only shrink it — the check
//     under-approximates and never reports a false conflict.
//   * AL012 is the static shadow of the DESIGN.md §7 livelock finding: a
//     cycle of event connections between instantly-dispatching,
//     instantly-completing threads lets dispatches chase each other without
//     time ever advancing — the explorer only detects single-state
//     instantaneous self-loops, not multi-state cycles, so we reject them
//     up front. It reads the instance model (cmin and dispatch protocols),
//     not the term graph.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "acsr/context.hpp"
#include "aadl/properties.hpp"
#include "lint/lint.hpp"
#include "lint/passes.hpp"

namespace aadlsched::lint {

namespace {

using acsr::Context;
using acsr::DefId;
using acsr::OpenKind;
using acsr::OpenTermId;
using acsr::OpenTermNode;

// --- AL010 ----------------------------------------------------------------

/// Definitions callable from `id` without passing an Act or Evt prefix.
/// Scope handlers only run after an event or the timeout, so they count as
/// guarded; the Scope body starts immediately and does not.
void unguarded_calls(const Context& ctx, OpenTermId id,
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

class UnguardedRecursionPass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL010", "unguarded-recursion",
        "process definitions must not reach themselves without an action "
        "or event prefix (unfolding diverges)",
        Tier::AcsrWellFormedness};
    return kInfo;
  }
  bool needs_instance() const override { return false; }
  bool needs_acsr() const override { return true; }
  void run(const Subject& subject, Sink& sink) const override {
    const Context& ctx = *subject.acsr;
    const std::size_t n = ctx.definition_count();
    std::vector<std::set<DefId>> succ(n);
    for (std::size_t d = 0; d < n; ++d) {
      const acsr::Definition& def = ctx.definition(static_cast<DefId>(d));
      if (def.body != acsr::kInvalidOpenTerm)
        unguarded_calls(ctx, def.body, succ[d]);
    }
    // A definition is ill-formed when it can unfold back into itself: DFS
    // the unguarded-call graph from each definition.
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
      if (cyclic)
        sink.error(ctx.definition(static_cast<DefId>(d)).name,
                   "definition recurses without an intervening action or "
                   "event prefix; unfolding this call diverges");
    }
  }
};

// --- AL011 ----------------------------------------------------------------

/// Collect the resource sets of every Act reachable from `id`, following
/// calls (each definition visited once).
void collect_action_sets(const Context& ctx, OpenTermId id,
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
      collect_action_sets(ctx, n.cont, seen_defs, out);
      return;
    case OpenKind::Choice:
    case OpenKind::Parallel:
      for (OpenTermId c : n.children)
        collect_action_sets(ctx, c, seen_defs, out);
      return;
    case OpenKind::Restrict:
    case OpenKind::Cond:
      collect_action_sets(ctx, n.cont, seen_defs, out);
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
      const acsr::Definition& def = ctx.definition(n.def);
      collect_action_sets(ctx, def.body, seen_defs, out);
      return;
    }
  }
}

/// Resources used by *every* reachable timed action of the term (empty when
/// the term has no timed action, or some action needs no resource).
std::set<acsr::Resource> must_use(const Context& ctx, OpenTermId id) {
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

void find_parallels(const Context& ctx, OpenTermId id,
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

class Par3ConflictPass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL011", "par3-conflict",
        "parallel components whose timed actions always share a resource "
        "can never take a joint timed step (Par3 timelock)",
        Tier::AcsrWellFormedness};
    return kInfo;
  }
  bool needs_instance() const override { return false; }
  bool needs_acsr() const override { return true; }
  void run(const Subject& subject, Sink& sink) const override {
    const Context& ctx = *subject.acsr;
    for (std::size_t d = 0; d < ctx.definition_count(); ++d) {
      const acsr::Definition& def = ctx.definition(static_cast<DefId>(d));
      if (def.body == acsr::kInvalidOpenTerm) continue;
      std::set<OpenTermId> seen;
      std::vector<OpenTermId> pars;
      find_parallels(ctx, def.body, seen, pars);
      for (OpenTermId pid : pars) {
        const OpenTermNode& par = ctx.open(pid);
        std::vector<std::set<acsr::Resource>> musts;
        musts.reserve(par.children.size());
        for (OpenTermId c : par.children)
          musts.push_back(must_use(ctx, c));
        for (std::size_t i = 0; i < musts.size(); ++i) {
          if (musts[i].empty()) continue;
          for (std::size_t j = i + 1; j < musts.size(); ++j) {
            for (acsr::Resource r : musts[j]) {
              if (!musts[i].count(r)) continue;
              sink.warning(
                  def.name,
                  "parallel components " + std::to_string(i) + " and " +
                      std::to_string(j) + " each use resource '" +
                      ctx.resource_name(r) +
                      "' in every timed action: they can never take a "
                      "joint timed step (Par3 requires disjoint resource "
                      "sets), so time cannot pass");
              break;  // one warning per pair is enough
            }
          }
        }
      }
    }
  }
};

// --- AL012 ----------------------------------------------------------------

class InstantaneousCyclePass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL012", "instantaneous-cycle",
        "event-connection cycles between instantly-dispatching, "
        "instantly-completing threads livelock without advancing time "
        "(DESIGN.md §7)",
        Tier::AcsrWellFormedness};
    return kInfo;
  }
  void run(const Subject& subject, Sink& sink) const override {
    const aadl::InstanceModel& m = *subject.instance;
    const std::int64_t q = subject.quantum_ns;
    if (q <= 0) return;

    // A thread can participate in an instantaneous dispatch cycle when it
    // is event-dispatched with no enforced separation and may complete
    // with zero quanta of execution.
    std::map<const aadl::ComponentInstance*, std::size_t> index;
    std::vector<const aadl::ComponentInstance*> nodes;
    for (const aadl::ComponentInstance* t : m.threads) {
      util::DiagnosticEngine scratch("<lint>");
      const auto tp = aadl::thread_properties(m, *t, scratch);
      if (!tp) continue;
      const bool instant_complete = tp->compute_min_ns <= 0;
      const bool instant_dispatch =
          tp->dispatch == aadl::DispatchProtocol::Aperiodic ||
          (tp->dispatch == aadl::DispatchProtocol::Sporadic &&
           tp->period_ns / q == 0);
      if (instant_complete && instant_dispatch) {
        index[t] = nodes.size();
        nodes.push_back(t);
      }
    }
    if (nodes.empty()) return;

    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const aadl::SemanticConnection& sc : m.connections) {
      if (sc.kind != aadl::FeatureKind::EventPort &&
          sc.kind != aadl::FeatureKind::EventDataPort)
        continue;
      const auto s = index.find(sc.source);
      const auto d = index.find(sc.destination);
      if (s != index.end() && d != index.end())
        adj[s->second].push_back(d->second);
    }

    // Report each cycle once, anchored at its smallest-index member.
    std::set<std::string> reported;
    for (std::size_t start = 0; start < nodes.size(); ++start) {
      // Iterative DFS tracking the path explicitly; only cycles whose
      // smallest member is `start` are reported (succ < start is pruned).
      std::vector<std::pair<std::size_t, std::size_t>> frames;  // node, next
      frames.emplace_back(start, 0);
      std::set<std::size_t> visited{start};
      while (!frames.empty()) {
        auto& [node, next] = frames.back();
        if (next >= adj[node].size()) {
          frames.pop_back();
          continue;
        }
        const std::size_t succ = adj[node][next++];
        if (succ == start) {
          std::ostringstream cyc;
          for (const auto& fr : frames) cyc << nodes[fr.first]->path << " -> ";
          cyc << nodes[start]->path;
          if (reported.insert(cyc.str()).second) {
            sink.error(nodes[start]->path,
                       "instantaneous dispatch cycle: " + cyc.str() +
                           "; every hop dispatches and completes in zero "
                           "quanta, so dispatches can chase each other "
                           "forever without time advancing (livelock, "
                           "DESIGN.md §7). Give some thread a nonzero "
                           "Compute_Execution_Time minimum or a sporadic "
                           "separation of at least one quantum");
          }
          continue;
        }
        if (succ < start || !visited.insert(succ).second) continue;
        frames.emplace_back(succ, 0);
      }
    }
  }
};

}  // namespace

void register_acsr_passes(Registry& reg) {
  reg.add(std::make_unique<UnguardedRecursionPass>());
  reg.add(std::make_unique<Par3ConflictPass>());
  reg.add(std::make_unique<InstantaneousCyclePass>());
}

}  // namespace aadlsched::lint
