// State-space exploration and deadlock detection (the paper's VERSA role).
//
// The explorer walks the *prioritized* transition relation breadth-first
// from an initial ground term. For models produced by the AADL translation,
// a reachable state with no outgoing prioritized transitions (a deadlock) is
// exactly a timing violation (§5); BFS order means the reported failing
// scenario is a shortest one.
//
// One model is explored by one thread: the engine owns its Semantics,
// visited set and frontier outright and takes no lock. Parallelism lives
// across models (versa/sweep.hpp, the server's worker pool); DESIGN.md §8
// gives the measurement behind that split.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "acsr/semantics.hpp"
#include "util/budget.hpp"

namespace aadlsched::versa {

/// A paused BFS: everything needed to continue an exploration later,
/// possibly in a different process, restored into a fresh copy of the same
/// translation (see versa/checkpoint.hpp). The invariant the engine maintains is that every
/// reachable-but-unvisited state is reachable through `frontier` ++
/// `next_frontier`, so seeding a fresh run with (visited, frontier,
/// counters) continues the exact same BFS — same final verdict and, on a
/// run that completes the space, the same state/transition counts. A
/// wavefront is only captured before a deadlock is found (the run stops
/// at its first one), so it carries no deadlock.
struct Wavefront {
  acsr::TermId initial = acsr::kNil;
  /// Unexpanded remainder of the level being expanded when the run stopped
  /// (in level order; may be empty when the stop fell on a level boundary).
  std::vector<acsr::TermId> frontier;
  /// States already discovered for the following level.
  std::vector<acsr::TermId> next_frontier;
  /// Every state ever discovered (includes the two frontiers).
  std::vector<acsr::TermId> visited;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  /// BFS depth of the level `frontier` belongs to.
  std::uint64_t depth = 0;
  std::uint64_t peak_frontier = 0;

  bool empty() const { return frontier.empty() && next_frontier.empty(); }
};

struct ExploreOptions {
  /// Stop after this many states (guards against runaway models).
  std::uint64_t max_states = 5'000'000;
  /// Resource envelope: wall-clock deadline, approximate memory ceiling,
  /// cooperative cancellation. Default = unlimited. The engine checks per
  /// expansion. Under memory pressure it degrades first — trace recording
  /// is dropped (ExploreResult::trace_dropped) — and only stops when
  /// pressure persists. See DESIGN.md §10.
  util::RunBudget budget;

  // --- warm re-exploration (checkpointing) -----------------------------
  /// When non-null and the run stops on a budget (Deadline / MemoryBudget /
  /// MaxStates / Cancelled), the engine writes the paused BFS here so the
  /// caller can serialize it. Left empty on a conclusive run (complete, or
  /// stopped at a deadlock).
  Wavefront* capture = nullptr;
  /// When non-null and non-empty, the run continues this wavefront instead
  /// of starting from `initial`: the visited set, both frontiers and all
  /// counters are seeded from it. A resumed run never records a trace (the
  /// parent links of the original run are gone), so a deadlock found after
  /// a resume reports without a counterexample timeline.
  const Wavefront* resume = nullptr;
};

/// One step of a counterexample: the label taken and the state reached.
struct Step {
  acsr::Label label;
  acsr::TermId target = acsr::kNil;
};

/// The run stops at the first deadlock it reaches, which is conclusive.
struct ExploreResult {
  bool complete = false;  // whole space visited, or stopped at a deadlock
  bool deadlock_found = false;
  std::uint64_t states = 0;       // distinct states visited
  std::uint64_t transitions = 0;  // prioritized transitions traversed
  acsr::TermId initial = acsr::kNil;
  acsr::TermId first_deadlock = acsr::kNil;
  /// Shortest path (BFS) from the initial state to the first deadlock;
  /// empty when schedulable, after a resume, or when memory pressure
  /// dropped the parent links.
  std::vector<Step> trace;

  // --- resource governance ---------------------------------------------
  /// Why the run ended early; None on a complete (or conclusively
  /// deadlocked) exploration. When != None the partial result still
  /// carries meaning: no deadlock is reachable within `depth` BFS levels /
  /// `states` states.
  util::StopReason stop = util::StopReason::None;
  /// Trace recording was dropped mid-run to relieve memory pressure; the
  /// verdict is unaffected but no counterexample trace is available.
  bool trace_dropped = false;
  /// Deepest BFS level fully expanded (0 = only the initial state).
  std::uint64_t depth = 0;
  /// Last sampled footprint estimate (0 if no memory ceiling was probed).
  std::uint64_t approx_memory_bytes = 0;

  // --- observability ---------------------------------------------------
  double wall_ms = 0;                 // exploration wall time
  std::uint64_t peak_frontier = 0;    // largest BFS frontier/level seen
  /// States expanded (successor fans requested) by this run; excludes
  /// expansions a resumed checkpoint already did.
  std::uint64_t expanded = 0;
  /// The run's Semantics counters: fan memo, fan sizes, preemption tests,
  /// fold partials and shape memo hits.
  acsr::Semantics::Stats sem_stats;

  bool schedulable() const { return complete && !deadlock_found; }
};

/// Breadth-first exploration of the prioritized transition system.
ExploreResult explore(acsr::Semantics& sem, acsr::TermId initial,
                      const ExploreOptions& opts = {});

/// A fully materialized labelled transition system, for tests and the
/// playground example (small models only).
struct Lts {
  std::vector<acsr::TermId> states;  // BFS discovery order; [0] = initial
  // edges[i]: prioritized transitions out of states[i]
  std::vector<std::vector<acsr::Transition>> edges;
  std::unordered_map<acsr::TermId, std::size_t> index;
};

Lts build_lts(acsr::Semantics& sem, acsr::TermId initial,
              std::uint64_t max_states = 100'000);

}  // namespace aadlsched::versa
