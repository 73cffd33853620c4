// Typed views over AADL properties: the standard properties the paper's
// translation consumes (§4.1 preconditions), with AADL time units
// normalized to nanoseconds and converted to scheduling quanta by the
// translator.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "aadl/instance.hpp"

namespace aadlsched::aadl {

enum class DispatchProtocol : std::uint8_t {
  Periodic,
  Sporadic,
  Aperiodic,
  Background,
};

std::string_view to_string(DispatchProtocol p);

enum class SchedulingProtocol : std::uint8_t {
  RateMonotonic,
  DeadlineMonotonic,
  HighestPriorityFirst,  // fixed priorities from the Priority property
  Edf,
  Llf,
};

std::string_view to_string(SchedulingProtocol p);

enum class OverflowProtocol : std::uint8_t {
  DropNewest,  // AADL DropNewest/DropOldest collapse to "drop" in a counter
  DropOldest,
  Error,
};

/// Timing in nanoseconds (canonical unit for AADL time literals).
struct ThreadProperties {
  DispatchProtocol dispatch = DispatchProtocol::Periodic;
  std::int64_t period_ns = 0;            // Period (also sporadic separation)
  std::int64_t compute_min_ns = 0;       // Compute_Execution_Time range
  std::int64_t compute_max_ns = 0;
  std::int64_t deadline_ns = 0;          // Deadline / Compute_Deadline
  std::optional<int> priority;           // Priority (for HPF scheduling)
};

struct ConnectionProperties {
  int queue_size = 1;  // Queue_Size, default 1 (§4.4)
  OverflowProtocol overflow = OverflowProtocol::DropNewest;
  int urgency = 0;     // Urgency: higher = preferred dequeue
};

/// Convert an AADL time literal to nanoseconds. Unknown units, and values
/// whose nanosecond count does not fit in 64 bits, report an error and
/// return nullopt. An empty unit means "quanta" and is accepted as-is only
/// by quantum-relative call sites; here it defaults to ns.
std::optional<std::int64_t> time_to_ns(const IntWithUnit& v,
                                       util::DiagnosticEngine& diags,
                                       util::SourceLoc loc);

/// A time-valued property in nanoseconds; nullopt when it is absent. A value
/// that is not a time, or that time_to_ns rejects, is reported to `diags`.
std::optional<std::int64_t> time_property(const InstanceModel& model,
                                          const ComponentInstance& inst,
                                          std::string_view name,
                                          util::DiagnosticEngine& diags);

/// The protocol a Dispatch_Protocol identifier names (case-insensitive), or
/// nullopt for an unsupported one.
std::optional<DispatchProtocol> parse_dispatch_protocol(std::string_view name);

/// Extract thread timing/dispatch properties; reports missing mandatory
/// properties (paper §4.1: Dispatch_Protocol, Compute_Execution_Time and a
/// deadline are required; Period is required for periodic/sporadic).
std::optional<ThreadProperties> thread_properties(
    const InstanceModel& model, const ComponentInstance& thread,
    util::DiagnosticEngine& diags);

/// Extract the scheduling protocol of a processor (required when threads
/// are bound to it, §4.1).
std::optional<SchedulingProtocol> scheduling_protocol(
    const InstanceModel& model, const ComponentInstance& processor,
    util::DiagnosticEngine& diags);

/// Queue/overflow/urgency properties of a semantic connection (§4.4).
ConnectionProperties connection_properties(const InstanceModel& model,
                                           const SemanticConnection& conn,
                                           util::DiagnosticEngine& diags);

}  // namespace aadlsched::aadl
