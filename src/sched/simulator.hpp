// Discrete-time scheduling simulator — the Cheddar-style baseline (§6).
//
// Simulates preemptive scheduling of independent tasks on one processor in
// integral quanta from the synchronous release (the critical instant), for
// one hyperperiod plus the largest deadline. For independent synchronous
// periodic tasks with constrained deadlines this is an exact decision
// procedure for FP and EDF, which is what makes it a useful oracle against
// both the analytical tests and the ACSR exploration.
//
// Unlike the exploration (§6: "exploring the state space of a formal
// executable model offers exhaustive analysis of all possible behaviors"),
// the simulator follows a single trajectory: WCET for every job, one
// tie-breaking rule. The event-chain experiments (E4) show where that
// under-approximates.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sched/task.hpp"

namespace aadlsched::sched {

enum class SchedulingPolicy : std::uint8_t {
  FixedPriority,  // uses Task::priority (larger = more important)
  Edf,            // earliest absolute deadline first
  Llf,            // least laxity first
};

struct SimOptions {
  SchedulingPolicy policy = SchedulingPolicy::FixedPriority;
  /// Simulate this many quanta; 0 = one hyperperiod + max deadline.
  Time horizon = 0;
  /// Record a per-quantum timeline (task index running, -1 idle).
  bool record_timeline = false;
};

struct DeadlineMiss {
  std::size_t task = 0;  // index into the task set
  Time release = 0;      // job release time
  Time deadline = 0;     // absolute deadline that was missed
};

struct SimResult {
  bool schedulable = true;
  std::optional<DeadlineMiss> first_miss;
  Time simulated = 0;  // quanta actually simulated
  std::vector<int> timeline;  // if requested: running task per quantum
  std::vector<Time> worst_response;  // observed per-task max response time
};

/// Simulate a single-processor task set. Tasks of kind Sporadic/Aperiodic
/// are released at their maximum rate (period = min separation), i.e. the
/// worst case; Background tasks are released once at t=0 with no deadline.
/// Throws std::invalid_argument when a non-background task has a period
/// below one quantum (there is no release pattern to simulate).
SimResult simulate(const TaskSet& ts, const SimOptions& opts = {});

/// Render a timeline as an ASCII Gantt chart (one row per task).
std::string render_gantt(const TaskSet& ts, const SimResult& result,
                         Time max_quanta = 60);

}  // namespace aadlsched::sched
