// The thread-timing rule of the translation: how AADL times become quanta
// (§4) and how a processor's Scheduling_Protocol becomes one static
// priority per thread (§5). The translator, the lint screen view, symbolic
// extraction and the classical task-set extraction all read a thread's
// parameters through these functions, so every analysis sees the
// parameters exploration would. The functions are pure: each caller keeps
// its own diagnostics, caps and loop policy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/properties.hpp"
#include "util/diagnostics.hpp"

namespace aadlsched::translate {

struct QuantizedTiming {
  std::int64_t cmin = 0, cmax = 0, period = 0, deadline = 0;
  std::int64_t offset = 0;  // Dispatch_Offset, within [0, period]
};

/// Conservative rounding: the execution-time range widens (max rounds up,
/// min rounds down and never exceeds max); periods, deadlines and the
/// offset round down, and the offset is clamped to [0, period].
QuantizedTiming quantize(const aadl::ThreadProperties& props,
                         std::int64_t offset_ns, std::int64_t quantum_ns);

/// Dispatch_Offset in nanoseconds; nullopt when absent, not a number with
/// a unit, or in an unknown unit (reported to `diags`).
std::optional<std::int64_t> dispatch_offset_ns(
    const aadl::InstanceModel& model, const aadl::ComponentInstance& thread,
    util::DiagnosticEngine& diags);

/// What the priority rule reads of one thread. Period and deadline share
/// one unit (quanta, or nanoseconds for the symbolic engine); <= 0 = none.
struct PriorityInput {
  aadl::DispatchProtocol dispatch = aadl::DispatchProtocol::Periodic;
  std::int64_t period = 0, deadline = 0;
  int declared = 0;  // Priority property; 0 = none
};

struct PriorityAssignment {
  std::vector<int> priorities;  // per input; larger = more important
  /// HPF inputs that need a Priority but declare none (non-background,
  /// declared == 0), in input order.
  std::vector<std::size_t> missing_priority;
};

/// One processor's static priorities, inputs in model order. RM/DM rank
/// by period/deadline from group.size() + 1 down, shortest first, ties in
/// model order, threads without one last; background threads then drop
/// to 1. HPF is the declared Priority + 2 (above background and idle).
/// EDF/LLF are dynamic: 0.
PriorityAssignment assign_priorities(aadl::SchedulingProtocol protocol,
                                     const std::vector<PriorityInput>& group);

}  // namespace aadlsched::translate
