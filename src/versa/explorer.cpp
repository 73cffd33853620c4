#include "versa/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <deque>

#include "util/flat_set.hpp"

namespace aadlsched::versa {

using acsr::Label;
using acsr::TermId;
using acsr::Transition;

namespace {

using Clock = std::chrono::steady_clock;

/// Parent link for counterexample reconstruction, stored flat (one packed
/// entry per discovered state instead of an unordered_map node).
struct ParentLink {
  TermId source = acsr::kNil;
  Label label;
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Stuck: no transitions at all, or nothing but instantaneous self-loops
/// (e.g. a full drop-protocol queue absorbing environment events while time
/// is frozen) — time can never progress again.
bool is_stuck(TermId state, const std::vector<Transition>& fan) {
  bool stuck = true;
  for (const Transition& tr : fan)
    stuck &= !tr.label.is_timed() && tr.target == state;
  return stuck;
}

void reconstruct_trace(ExploreResult& result,
                       const util::FlatIdMap<ParentLink>& parent) {
  std::vector<Step> rev;
  TermId cur = result.first_deadlock;
  while (cur != result.initial) {
    const ParentLink* link = parent.find(cur);
    if (!link) break;  // initial state itself deadlocked
    rev.push_back(Step{link->label, cur});
    cur = link->source;
  }
  std::reverse(rev.begin(), rev.end());
  result.trace = std::move(rev);
}

}  // namespace

ExploreResult explore(acsr::Semantics& sem, TermId initial,
                      const ExploreOptions& opts) {
  const auto t0 = Clock::now();
  const acsr::Semantics::Stats stats_before = sem.stats();
  ExploreResult result;

  result.initial = initial;

  util::FlatIdMap<ParentLink> parent;
  util::FlatIdSet seen;
  std::deque<TermId> frontier;

  bool recording = true;

  // Rolling level boundary so the partial verdict can say "no deadlock
  // within BFS depth d" (O(1) space: count nodes left in the current
  // level).
  std::uint64_t level_remaining = 1;
  std::uint64_t next_level = 0;

  if (opts.resume && !opts.resume->empty()) {
    // Warm start: seed the visited set, both frontiers and every counter
    // from the paused run. The deque layout below (current-level remainder
    // followed by the next level) is exactly the loop invariant, so the
    // resumed BFS is indistinguishable from one that never stopped — except
    // that parent links are gone, so no trace can be recorded.
    const Wavefront& w = *opts.resume;
    result.initial = w.initial;
    seen.reserve(w.visited.size());
    for (const TermId s : w.visited) seen.insert(s);
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
    recording = false;
  } else {
    seen.insert(result.initial);
    frontier.push_back(result.initial);
    result.states = 1;
    result.peak_frontier = 1;
  }

  // Hash-cons tables + fan memo + flat visited/parent tables + frontier.
  // The flat tables report their actual footprint, not a per-node guess.
  const auto approx_memory = [&]() -> std::uint64_t {
    return sem.context().approx_bytes() + sem.approx_bytes() +
           seen.approx_bytes() + parent.approx_bytes() +
           frontier.size() * sizeof(TermId);
  };
  util::BudgetTracker tracker(opts.budget, approx_memory);
  // The fold inside one expansion polls the same tracker; detach it on
  // every way out, since the tracker dies with this call.
  struct Detach {
    acsr::Semantics& sem;
    ~Detach() { sem.set_budget(nullptr); }
  } detach{sem};
  if (!opts.budget.unlimited()) sem.set_budget(&tracker);

  const auto finish = [&] {
    result.sem_stats = sem.stats() - stats_before;
    // Reported even when no memory budget probed it: BM_StormBytesPerState
    // reads bytes/state off any run.
    result.approx_memory_bytes = approx_memory();
    result.wall_ms = ms_since(t0);
  };

  // Snapshot the paused BFS for a later warm resume. Only meaningful at the
  // loop top, where the frontier deque is exactly [current-level remainder]
  // ++ [next level] — both early returns below sit there.
  const auto capture_wavefront = [&] {
    if (!opts.capture) return;
    Wavefront& w = *opts.capture;
    w = {};
    w.initial = result.initial;
    w.frontier.assign(frontier.begin(),
                      frontier.begin() + static_cast<std::ptrdiff_t>(
                                             level_remaining));
    w.next_frontier.assign(frontier.begin() + static_cast<std::ptrdiff_t>(
                                                  level_remaining),
                           frontier.end());
    w.visited.reserve(seen.size());
    seen.for_each([&](std::uint32_t s) { w.visited.push_back(s); });
    w.states = result.states;
    w.transitions = result.transitions;
    w.depth = result.depth;
    w.peak_frontier = result.peak_frontier;
  };

  // Act on a budget signal; false means stop (result.stop is set).
  const auto within_budget = [&](const util::BudgetStatus& budget) {
    if (budget.signal == util::BudgetSignal::MemoryPressure && recording) {
      // Graceful degradation: give the run a second life by releasing the
      // parent links (usually the largest non-essential structure) before
      // giving up on the verdict itself.
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

  std::vector<Transition> fan;  // reused: a warm expansion allocates nothing
  while (!frontier.empty()) {
    // The state cap is enforced here (not mid-fan) so a capped run stops on
    // a state boundary with a consistent wavefront for checkpointing.
    if (result.states >= opts.max_states) {
      result.stop = util::StopReason::MaxStates;
      capture_wavefront();
      finish();
      return result;  // complete stays false: partial result
    }
    if (!within_budget(tracker.check(result.states))) {
      capture_wavefront();
      finish();
      return result;  // complete stays false: partial result
    }

    const bool new_level = level_remaining == 0;
    if (new_level) {
      ++result.depth;
      level_remaining = next_level;
      next_level = 0;
    }
    const TermId state = frontier.front();
    frontier.pop_front();
    --level_remaining;

    if (!sem.prioritized(state, fan)) {
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
      capture_wavefront();
      finish();
      return result;
    }
    ++result.expanded;
    if (is_stuck(state, fan)) {
      result.deadlock_found = true;
      result.first_deadlock = state;
      break;
    }
    for (const Transition& tr : fan) {
      ++result.transitions;
      if (seen.insert(tr.target)) {
        if (recording) parent.emplace(tr.target, ParentLink{state, tr.label});
        ++result.states;
        ++next_level;
        frontier.push_back(tr.target);
        result.peak_frontier =
            std::max<std::uint64_t>(result.peak_frontier, frontier.size());
      }
    }
  }

  result.complete = true;  // the space is exhausted, or a deadlock decided

  if (result.deadlock_found && recording) reconstruct_trace(result, parent);
  finish();
  return result;
}

Lts build_lts(acsr::Semantics& sem, TermId initial,
              std::uint64_t max_states) {
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
