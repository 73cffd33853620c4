// State-space exploration and deadlock detection (the paper's VERSA role).
//
// The explorer walks the *prioritized* transition relation breadth-first
// from an initial ground term. For models produced by the AADL translation,
// a reachable state with no outgoing prioritized transitions (a deadlock) is
// exactly a timing violation (§5); BFS order means the reported failing
// scenario is a shortest one.
//
// States are rows, not terms. Every successor of a translated model's
// unfolded initial state is Restrict(F, Parallel(c₁…c_k)) with the same F,
// so the explorer keeps each state as its sorted component row in a
// StateStore, with a dense parent vector indexed by state number.
// acsr::Semantics::expand_row() hands it the survivors' rows; no explored
// state enters the term table, which holds only component terms. A state that is not of that shape (the initial Call,
// NIL, or any state of a hand-built term) is a one-entry row holding its
// term, expanded through Semantics::prioritized(TermId). Only the states
// of the reported trace are interned as terms, after the run, so
// ExploreResult speaks in TermIds (DESIGN.md §13).
//
// State numbers are first-intern order. Canonical fan order breaks label
// ties by target, and the term-based relation ranks targets by TermId, the
// order in which they were first interned. The table reproduces it: every
// run first ranks NIL and each Restrict(F, Parallel) term already in the
// term table (after an expansion through the term path, the new ones too),
// in TermId order, then ranks each new row when expand_row() first names
// it. So BFS order, the first deadlock and its trace are those of the
// term-based exploration (`versa::build_lts`, which still interns every
// state).
//
// One model is explored by one thread: the engine owns its Semantics,
// state store and frontier outright and takes no lock. Parallelism lives
// across models (versa/sweep.hpp, the server's worker pool); DESIGN.md §8
// gives the measurement behind that split.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "acsr/semantics.hpp"
#include "util/budget.hpp"
#include "util/span_table.hpp"

namespace aadlsched::versa {

/// The restriction F of a run's row states: F when `initial`, its Calls
/// unfolded, is Restrict(F, Parallel(...)), else
/// Semantics::kNoRestriction (bare Parallel states are rows then). May
/// unfold `initial`, as its first expansion would.
acsr::EventSetId row_restriction(acsr::Context& ctx, acsr::TermId initial);

/// The term of a state row under `restriction`: a one-entry row is its
/// term, a longer one (Restrict F) Parallel(row). Interns it.
acsr::TermId row_term(acsr::Context& ctx, acsr::EventSetId restriction,
                      std::span<const acsr::TermId> row);

/// Most components a state row may have (the state store's arena chunk).
inline constexpr std::size_t kMaxRowWidth = std::size_t{1} << 14;

/// The explored states: sorted component rows numbered in first-intern
/// order (interning a row is the visited check), each flagged once the BFS
/// discovers it (the others were only ranked); the RowSink of
/// Semantics::expand_row(). Rows never move, so a row being expanded stays
/// valid while its targets are interned. A running exploration owns its
/// store; capture moves it into a Wavefront and resume moves it back.
class StateStore final : public acsr::Semantics::RowSink {
 public:
  std::uint32_t intern(std::span<const acsr::TermId> row) override {
    const std::uint32_t s = rows_.intern(row);
    if (s == seen_.size()) seen_.push_back(false);
    return s;
  }
  std::span<const acsr::TermId> row(std::uint32_t s) const { return rows_[s]; }
  std::uint32_t size() const { return rows_.size(); }
  bool seen(std::uint32_t s) const { return seen_[s]; }
  void mark_seen(std::uint32_t s) { seen_[s] = true; }

  std::size_t approx_bytes() const {
    return rows_.approx_bytes() + seen_.capacity() / 8;
  }

 private:
  util::SpanTable<acsr::TermId, 14, 12> rows_;
  static_assert(decltype(rows_)::kMaxSpan == kMaxRowWidth);
  std::vector<bool> seen_;
};

/// A paused BFS: everything needed to continue an exploration later,
/// possibly in a different process, restored into a fresh copy of the same
/// translation (see versa/checkpoint.hpp). Every reachable-but-unvisited
/// state is reachable through `frontier` ++ `next_frontier`, so seeding a
/// fresh run with (state store, frontiers, counters) continues the exact
/// same BFS: same verdict and, on a run that completes the space, the same
/// counts. It is captured only before a deadlock, and is moved, never
/// copied: it owns the only copy of the rows.
struct Wavefront {
  acsr::TermId initial = acsr::kNil;
  /// Every state, read under row_restriction(initial); seen on every state
  /// ever discovered (the two frontiers included).
  StateStore store;
  /// Unexpanded remainder of the level being expanded when the run stopped
  /// (in level order; may be empty when the stop fell on a level boundary),
  /// as state numbers.
  std::vector<std::uint32_t> frontier;
  /// States already discovered for the following level.
  std::vector<std::uint32_t> next_frontier;
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
  /// MaxStates / Cancelled), the engine moves the paused BFS, state store
  /// included, here so the caller can serialize it. Left empty on a
  /// conclusive run (complete, or stopped at a deadlock).
  Wavefront* capture = nullptr;
  /// When non-null and non-empty, the run continues this wavefront instead
  /// of starting from `initial`: it takes over the state store and seeds
  /// both frontiers and all counters from it, leaving the wavefront empty.
  /// A resumed run never records a trace (the parent links of the original
  /// run are gone), so a deadlock found after a resume reports without a
  /// counterexample timeline.
  Wavefront* resume = nullptr;

  /// When non-null (tests only), a cold run ends by interning every row of
  /// its state table as a term, in state-number order, and writes here the
  /// terms of the states it discovered, in BFS order.
  std::vector<acsr::TermId>* discovered = nullptr;
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
  /// dropped the parent vector. Its states and the first deadlock are the
  /// only explored states interned as terms.
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
/// playground example (small models only). Every state is a term, expanded
/// through Semantics::prioritized(TermId): the term-based oracle the state
/// table is compared with.
struct Lts {
  std::vector<acsr::TermId> states;  // BFS discovery order; [0] = initial
  // edges[i]: prioritized transitions out of states[i]
  std::vector<std::vector<acsr::Transition>> edges;
  std::unordered_map<acsr::TermId, std::size_t> index;
};

Lts build_lts(acsr::Semantics& sem, acsr::TermId initial,
              std::uint64_t max_states = 100'000);

}  // namespace aadlsched::versa
