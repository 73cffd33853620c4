// Symbolic exploration: a state-class graph over dense time, beside the
// unit-quantum enumerator (DESIGN.md §16).
//
// The enumerator's cost is proportional to hyperperiod / quantum — exactly
// what EXPERIMENTS.md E2 measures blowing up, while finer quanta are
// *required* for precision. This engine analyzes the same scheduling
// semantics event-by-event instead of quantum-by-quantum: a state class is
// (discrete per-task state, canonical DBM zone over the task clocks), the
// successor relation jumps straight to the next dispatch / completion /
// deadline instant, and the verdict is independent of any quantum.
//
// Applicability is a restricted-but-honest fragment, checked by
// validate_model() (and extracted from AADL by core/symbolic_extract):
// periodic threads with constrained deadlines, static distinct priorities
// per processor, committed interval demands, no event queues, no shared
// buses. Demand intervals are abstracted to their endpoints {cmin, cmax};
// that abstraction is verdict-exact for preemptive fixed-priority
// scheduling because completion times are componentwise monotone in
// demands (the sustainability argument in DESIGN.md §16), so a deadline
// miss under any demand vector implies one under the all-cmax corner.
//
// Subsumption: a candidate class whose zone is included in an
// already-visited class with the same discrete state is pruned. Both
// classes' zones are delay segments ending at the same event instant, so
// the included class's futures are a subset of the subsumer's — pruning
// drops no reachable miss (soundness argument in DESIGN.md §16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/budget.hpp"
#include "versa/dbm.hpp"

namespace aadlsched::versa {

/// One periodic task of the symbolic fragment. All times exact
/// nanoseconds — no quantum is involved anywhere in this engine.
struct SymbolicTask {
  std::string path;  // AADL instance path, for witnesses/diagnostics
  std::int64_t period_ns = 0;    // > 0
  std::int64_t deadline_ns = 0;  // 0 < deadline <= period (constrained)
  std::int64_t cmin_ns = 0;      // 0 <= cmin <= cmax
  std::int64_t cmax_ns = 0;
  std::int64_t offset_ns = 0;  // first dispatch offset, in [0, period]
  int priority = 0;            // larger preempts smaller; distinct per cpu
  std::size_t cpu = 0;         // processor index, [0, cpu_count)
};

struct SymbolicModel {
  std::vector<SymbolicTask> tasks;
  std::size_t cpu_count = 0;
};

/// Invariants explore_symbolic() relies on; one human-readable reason per
/// violation, empty when the model is well-formed.
std::vector<std::string> validate_model(const SymbolicModel& m);

struct SymbolicOptions {
  /// Stop after this many state classes (the symbolic max_states).
  std::uint64_t max_classes = 1'000'000;
  /// Wall-clock / cancellation envelope, same governor as the enumerator.
  util::RunBudget budget;
};

struct SymbolicResult {
  bool complete = false;    // class graph closed under successors
  bool miss_found = false;  // a deadline miss class was reached
  util::StopReason stop = util::StopReason::None;
  std::uint64_t classes = 0;       // distinct state classes visited
  std::uint64_t transitions = 0;   // successor edges computed
  std::uint64_t subsumptions = 0;  // candidates folded into a visited class
  std::uint64_t depth = 0;         // longest event chain from the start
  std::uint64_t peak_frontier = 0;
  std::size_t dbm_dimension = 0;  // clocks + reference
  double wall_ms = 0;
  /// Event trail from system start to the first miss (empty otherwise).
  std::vector<std::string> witness;
  /// Task paths whose deadline was violated in the miss class.
  std::vector<std::string> missed;

  bool schedulable() const { return complete && !miss_found; }
};

/// Explore the state-class graph. The model must pass validate_model();
/// violations surface as an immediate Fault stop with the reasons in
/// `witness`. Thread-safe: no shared mutable state, so concurrent calls
/// (e.g. under versa::parallel_sweep) need no locking.
SymbolicResult explore_symbolic(const SymbolicModel& m,
                                const SymbolicOptions& opts = {});

}  // namespace aadlsched::versa
