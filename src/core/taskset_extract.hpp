// Inverse bridge: extract a classical task set from a bound AADL instance
// model. This is what lets the analytical baselines (RTA, demand analysis,
// the simulator) run directly on an AADL model next to the exhaustive
// exploration — the comparison surface of EXPERIMENTS.md E8 and the CLI's
// --classical mode.
//
// The extraction is faithful for what the classical task model can
// express: independent threads with WCETs, periods and deadlines. Event
// connections, queues and bus contention have no classical counterpart;
// extract() reports whether such features were present so callers can
// label the classical verdict as approximate.
#pragma once

#include <optional>
#include <string>

#include "aadl/instance.hpp"
#include "aadl/properties.hpp"
#include "sched/task.hpp"

namespace aadlsched::core {

struct ExtractedTaskSet {
  sched::TaskSet tasks;
  /// Processor instance path per Task::processor index.
  std::vector<std::string> processor_paths;
  /// Scheduling protocol per processor index.
  std::vector<aadl::SchedulingProtocol> protocols;
  /// True when the model uses features the classical task model cannot
  /// express (event connections/queues, bus bindings): the classical
  /// verdict is then only an approximation of the model's behaviour.
  bool lossy = false;
};

/// Extract the periodic/sporadic task view of a bound instance model.
/// Quantized times and priorities are those of lint's screen view, i.e.
/// the translator's rule (translate/timing.hpp) at `quantum_ns`: an
/// aperiodic thread ranks as having no period, even though its task then
/// takes the deadline as its period. Returns nullopt when mandatory
/// properties are missing (errors in `diags`).
std::optional<ExtractedTaskSet> extract_taskset(
    const aadl::InstanceModel& model, std::int64_t quantum_ns,
    util::DiagnosticEngine& diags);

}  // namespace aadlsched::core
