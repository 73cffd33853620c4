#include "versa/explorer.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <utility>

namespace aadlsched::versa {

using acsr::EventSetId;
using acsr::Semantics;
using acsr::TermId;
using acsr::TermKind;
using acsr::Transition;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNoParent = 0xFFFFFFFF;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Stuck: no transitions at all, or nothing but instantaneous self-loops
/// (e.g. a full drop-protocol queue absorbing environment events while time
/// is frozen) — time can never progress again.
bool is_stuck(std::uint32_t state, const std::vector<Transition>& fan) {
  bool stuck = true;
  for (const Transition& tr : fan)
    stuck &= !tr.label.is_timed() && tr.target == state;
  return stuck;
}

}  // namespace

EventSetId row_restriction(acsr::Context& ctx, TermId initial) {
  const acsr::TermTable& tt = ctx.terms();
  TermId body = initial;
  while (tt.kind(body) == TermKind::Call) body = ctx.unfold(body);
  const acsr::TermNode& node = tt.node(body);
  return node.kind == TermKind::Restrict &&
                 tt.kind(node.b) == TermKind::Parallel
             ? node.a
             : Semantics::kNoRestriction;
}

TermId row_term(acsr::Context& ctx, EventSetId restriction,
                std::span<const TermId> row) {
  if (row.size() == 1) return row[0];
  acsr::TermTable& tt = ctx.terms();
  const TermId par = tt.parallel(row);
  return restriction == Semantics::kNoRestriction
             ? par
             : tt.restrict(restriction, par);
}

ExploreResult explore(Semantics& sem, TermId initial,
                      const ExploreOptions& opts) {
  const auto t0 = Clock::now();
  const Semantics::Stats stats_before = sem.stats();
  ExploreResult result;
  Wavefront* resume =
      opts.resume && !opts.resume->empty() ? opts.resume : nullptr;
  result.initial = resume ? resume->initial : initial;

  acsr::Context& ctx = sem.context();
  const acsr::TermTable& tt = ctx.terms();
  const EventSetId fset = row_restriction(ctx, result.initial);

  StateStore table;
  // parent[s]: the state whose expansion discovered s (kNoParent for the
  // initial state and for states only ranked). The label is recovered by
  // expanding the parent again, for the trace's states only.
  std::vector<std::uint32_t> parent;
  std::deque<std::uint32_t> frontier;
  std::vector<std::uint32_t> order;  // discovery order, for opts.discovered
  bool recording = !resume;

  // The Parallel inside a row-shaped term (Restrict(F, Parallel) under F,
  // a bare Parallel when there is no F), else kInvalidTerm.
  const auto parallel_of = [&](TermId t) {
    const acsr::TermNode& n = tt.node(t);
    if (fset == Semantics::kNoRestriction)
      return n.kind == TermKind::Parallel ? t : acsr::kInvalidTerm;
    return n.kind == TermKind::Restrict && n.a == fset &&
                   tt.kind(n.b) == TermKind::Parallel
               ? n.b
               : acsr::kInvalidTerm;
  };
  const auto state_of = [&](TermId t) {
    const TermId par = parallel_of(t);
    return par != acsr::kInvalidTerm
               ? table.intern(tt.payload(par))
               : table.intern(std::span<const TermId>(&t, 1));
  };
  // Rank NIL and every row-shaped term in TermId order, as the term-based
  // relation ranks them; called again after each term-path expansion.
  TermId ranked = 0;
  const auto rank_terms = [&] {
    for (; ranked < tt.size(); ++ranked) {
      const TermId par = parallel_of(ranked);
      if (par != acsr::kInvalidTerm) table.intern(tt.payload(par));
    }
  };

  // The prioritized fan of state s, targets as state numbers, in the order
  // the term-based relation gives them.
  const auto expand = [&](std::uint32_t s, std::vector<Transition>& fan) {
    const auto row = table.row(s);
    if (row.size() > 1) return sem.expand_row(fset, row, table, fan);
    if (!sem.prioritized(row[0], fan)) return false;
    rank_terms();
    for (Transition& tr : fan) tr.target = state_of(tr.target);
    return true;
  };

  // Rolling level boundary so the partial verdict can say "no deadlock
  // within BFS depth d" (O(1) space: count nodes left in the current
  // level).
  std::uint64_t level_remaining = 1;
  std::uint64_t next_level = 0;

  // A resumed run takes over the paused store first, so its state numbers
  // hold; ranking then finds what it ranked before.
  if (resume) table = std::move(resume->store);
  table.intern(std::span<const TermId>(&acsr::kNil, 1));
  rank_terms();
  const std::uint32_t root = state_of(result.initial);

  if (resume) {
    // Warm start: seed both frontiers and every counter from the paused
    // run. The deque layout below (current-level remainder followed by the
    // next level) is exactly the loop invariant, so the resumed BFS is
    // indistinguishable from one that never stopped — except that parent
    // links are gone, so no trace can be recorded.
    const Wavefront& w = *resume;
    frontier.insert(frontier.end(), w.frontier.begin(), w.frontier.end());
    frontier.insert(frontier.end(), w.next_frontier.begin(),
                    w.next_frontier.end());
    level_remaining = w.frontier.size();
    next_level = w.next_frontier.size();
    result.states = w.states;
    result.transitions = w.transitions;
    result.depth = w.depth;
    result.peak_frontier = std::max<std::uint64_t>(w.peak_frontier,
                                                   frontier.size());
    *resume = {};  // consumed
  } else {
    table.mark_seen(root);
    frontier.push_back(root);
    if (opts.discovered) order.push_back(root);
    result.states = 1;
    result.peak_frontier = 1;
  }

  // Hash-cons tables + fan and shape memos + state store + parent vector +
  // frontier. Every part reports its actual footprint, not a per-node guess.
  const auto approx_memory = [&]() -> std::uint64_t {
    return sem.context().approx_bytes() + sem.approx_bytes() +
           table.approx_bytes() +
           (parent.capacity() + order.capacity()) * sizeof(std::uint32_t) +
           frontier.size() * sizeof(std::uint32_t);
  };
  util::BudgetTracker tracker(opts.budget, approx_memory);
  // The fold inside one expansion polls the same tracker; detach it on
  // every way out, since the tracker dies with this call.
  struct Detach {
    Semantics& sem;
    ~Detach() { sem.set_budget(nullptr); }
  } detach{sem};
  if (!opts.budget.unlimited()) sem.set_budget(&tracker);

  const auto finish = [&] {
    result.approx_memory_bytes = approx_memory();
    result.wall_ms = ms_since(t0);
  };

  // Hand the paused BFS over for a later warm resume: the state store moves
  // out, so this is the run's last use of it. Only meaningful at the loop
  // top, where the frontier deque is exactly [current-level remainder] ++
  // [next level] — both early returns below sit there.
  const auto capture_wavefront = [&] {
    if (!opts.capture) return;
    Wavefront& w = *opts.capture;
    w = {};
    w.initial = result.initial;
    w.store = std::move(table);
    const auto split =
        frontier.begin() + static_cast<std::ptrdiff_t>(level_remaining);
    w.frontier.assign(frontier.begin(), split);
    w.next_frontier.assign(split, frontier.end());
    w.states = result.states;
    w.transitions = result.transitions;
    w.depth = result.depth;
    w.peak_frontier = result.peak_frontier;
  };
  const auto stop_early = [&] {
    result.sem_stats = sem.stats() - stats_before;
    finish();  // measures the store before the capture moves it out
    capture_wavefront();
    return result;  // complete stays false: partial result
  };

  // Act on a budget signal; false means stop (result.stop is set).
  const auto within_budget = [&](const util::BudgetStatus& budget) {
    if (budget.signal == util::BudgetSignal::MemoryPressure && recording) {
      // Graceful degradation: give the run a second life by releasing the
      // parent vector (the largest non-essential structure) before giving
      // up on the verdict itself.
      parent = {};
      recording = false;
      result.trace_dropped = true;
      tracker.note_degraded();
    } else if (budget.signal != util::BudgetSignal::Proceed) {
      result.stop = budget.reason;
      return false;
    }
    return true;
  };

  std::uint32_t deadlock = 0;
  std::vector<Transition> fan;  // reused: a warm expansion allocates nothing
  while (!frontier.empty()) {
    // The state cap is enforced here (not mid-fan) so a capped run stops on
    // a state boundary with a consistent wavefront for checkpointing.
    if (result.states >= opts.max_states) {
      result.stop = util::StopReason::MaxStates;
      return stop_early();
    }
    if (!within_budget(tracker.check())) return stop_early();

    const bool new_level = level_remaining == 0;
    if (new_level) {
      ++result.depth;
      level_remaining = next_level;
      next_level = 0;
    }
    const std::uint32_t state = frontier.front();
    frontier.pop_front();
    --level_remaining;

    if (!expand(state, fan)) {
      // The budget tripped inside the expansion: put the state back so the
      // loop top sees the same frontier, depth and level counts as before
      // it was popped, then act on the trip as on a loop-top check.
      frontier.push_front(state);
      ++level_remaining;
      if (new_level) {
        --result.depth;
        next_level = level_remaining;
        level_remaining = 0;
      }
      if (within_budget(sem.interruption())) continue;
      return stop_early();
    }
    ++result.expanded;
    if (is_stuck(state, fan)) {
      result.deadlock_found = true;
      deadlock = state;
      break;
    }
    if (recording) parent.resize(table.size(), kNoParent);
    for (const Transition& tr : fan) {
      ++result.transitions;
      if (table.seen(tr.target)) continue;
      table.mark_seen(tr.target);
      if (recording) parent[tr.target] = state;
      if (opts.discovered) order.push_back(tr.target);
      ++result.states;
      ++next_level;
      frontier.push_back(tr.target);
      result.peak_frontier =
          std::max<std::uint64_t>(result.peak_frontier, frontier.size());
    }
  }

  result.complete = true;  // the space is exhausted, or a deadlock decided
  result.sem_stats = sem.stats() - stats_before;
  sem.set_budget(nullptr);  // the trace's re-expansions are not budgeted

  if (result.deadlock_found) {
    result.first_deadlock = row_term(ctx, fset, table.row(deadlock));
    if (recording) {
      // Walk the parent links back to the initial state, then expand each
      // step's source again for the label of its first transition into
      // the step's target: the transition that discovered it.
      std::vector<std::uint32_t> path;
      for (std::uint32_t s = deadlock; s != root && parent[s] != kNoParent;
           s = parent[s])
        path.push_back(s);
      std::uint32_t from = root;
      for (auto it = path.rbegin(); it != path.rend(); ++it) {
        expand(from, fan);
        const auto step = std::find_if(
            fan.begin(), fan.end(),
            [&](const Transition& tr) { return tr.target == *it; });
        assert(step != fan.end());
        result.trace.push_back(
            Step{step->label, row_term(ctx, fset, table.row(*it))});
        from = *it;
      }
    }
  }
  if (opts.discovered && !resume) {
    std::vector<TermId> terms(table.size());
    for (std::uint32_t s = 0; s < table.size(); ++s)
      terms[s] = row_term(ctx, fset, table.row(s));
    opts.discovered->clear();
    for (const std::uint32_t s : order) opts.discovered->push_back(terms[s]);
  }
  finish();
  return result;
}

Lts build_lts(Semantics& sem, TermId initial, std::uint64_t max_states) {
  Lts lts;
  lts.states.push_back(initial);
  lts.index.emplace(initial, 0);
  for (std::size_t i = 0; i < lts.states.size(); ++i) {
    const TermId state = lts.states[i];
    std::vector<Transition> fan = sem.prioritized(state);
    for (const Transition& tr : fan) {
      if (lts.index.contains(tr.target)) continue;
      // Reserve the slot only while there is capacity for it; otherwise the
      // index would hold a dangling entry for a state never pushed.
      if (lts.states.size() >= max_states) continue;
      lts.index.emplace(tr.target, lts.states.size());
      lts.states.push_back(tr.target);
    }
    lts.edges.push_back(std::move(fan));
  }
  return lts;
}

}  // namespace aadlsched::versa
