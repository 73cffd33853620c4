#include "aadl/properties.hpp"

#include "util/string_utils.hpp"

namespace aadlsched::aadl {

std::string_view to_string(DispatchProtocol p) {
  switch (p) {
    case DispatchProtocol::Periodic: return "Periodic";
    case DispatchProtocol::Sporadic: return "Sporadic";
    case DispatchProtocol::Aperiodic: return "Aperiodic";
    case DispatchProtocol::Background: return "Background";
  }
  return "?";
}

std::string_view to_string(SchedulingProtocol p) {
  switch (p) {
    case SchedulingProtocol::RateMonotonic: return "RATE_MONOTONIC_PROTOCOL";
    case SchedulingProtocol::DeadlineMonotonic:
      return "DEADLINE_MONOTONIC_PROTOCOL";
    case SchedulingProtocol::HighestPriorityFirst:
      return "HPF_PROTOCOL";
    case SchedulingProtocol::Edf: return "EDF_PROTOCOL";
    case SchedulingProtocol::Llf: return "LLF_PROTOCOL";
  }
  return "?";
}

std::optional<std::int64_t> time_to_ns(const IntWithUnit& v,
                                       util::DiagnosticEngine& diags,
                                       util::SourceLoc loc) {
  // v.unit is lowercased by the parser (ast.hpp).
  std::int64_t scale = 0;
  if (v.unit.empty() || v.unit == "ns")
    scale = 1;
  else if (v.unit == "us")
    scale = 1'000;
  else if (v.unit == "ms")
    scale = 1'000'000;
  else if (v.unit == "sec" || v.unit == "s")
    scale = 1'000'000'000;
  else if (v.unit == "min")
    scale = 60LL * 1'000'000'000;
  else if (v.unit == "hr")
    scale = 3600LL * 1'000'000'000;
  else if (v.unit == "ps") {
    // Sub-nanosecond: round to nanoseconds.
    return v.value / 1000;
  } else {
    diags.error(loc, "unknown time unit '" + v.unit + "'");
    return std::nullopt;
  }
  std::int64_t ns = 0;
  if (__builtin_mul_overflow(v.value, scale, &ns)) {
    diags.error(loc, "time value " + std::to_string(v.value) + " " + v.unit +
                         " is out of range");
    return std::nullopt;
  }
  return ns;
}

std::optional<std::int64_t> time_property(const InstanceModel& model,
                                          const ComponentInstance& inst,
                                          std::string_view name,
                                          util::DiagnosticEngine& diags) {
  const PropertyValue* pv = find_property(model, inst, name);
  if (!pv) return std::nullopt;
  if (const auto* iu = std::get_if<IntWithUnit>(&pv->data))
    return time_to_ns(*iu, diags, {});
  diags.error({}, std::string(name) + " of '" + inst.path +
                      "' is not a time value");
  return std::nullopt;
}

std::optional<DispatchProtocol> parse_dispatch_protocol(std::string_view name) {
  if (util::iequals(name, "periodic")) return DispatchProtocol::Periodic;
  if (util::iequals(name, "sporadic")) return DispatchProtocol::Sporadic;
  if (util::iequals(name, "aperiodic")) return DispatchProtocol::Aperiodic;
  if (util::iequals(name, "background")) return DispatchProtocol::Background;
  return std::nullopt;
}

namespace {

std::optional<std::pair<std::int64_t, std::int64_t>> time_range_property(
    const InstanceModel& model, const ComponentInstance& inst,
    std::string_view name, util::DiagnosticEngine& diags) {
  const PropertyValue* pv = find_property(model, inst, name);
  if (!pv) return std::nullopt;
  if (const auto* r = std::get_if<RangeValue>(&pv->data)) {
    const auto lo = time_to_ns(r->lo, diags, {});
    const auto hi = time_to_ns(r->hi, diags, {});
    if (!lo || !hi) return std::nullopt;
    return std::make_pair(*lo, *hi);
  }
  if (const auto* iu = std::get_if<IntWithUnit>(&pv->data)) {
    const auto v = time_to_ns(*iu, diags, {});
    if (!v) return std::nullopt;
    return std::make_pair(*v, *v);
  }
  diags.error({}, std::string(name) + " of '" + inst.path +
                      "' is not a time or time range");
  return std::nullopt;
}

}  // namespace

std::optional<ThreadProperties> thread_properties(
    const InstanceModel& model, const ComponentInstance& thread,
    util::DiagnosticEngine& diags) {
  ThreadProperties tp;

  const PropertyValue* dp =
      find_property(model, thread, "dispatch_protocol");
  if (!dp) {
    diags.error({}, "thread '" + thread.path +
                        "' is missing Dispatch_Protocol (required, §4.1)");
    return std::nullopt;
  }
  const auto* proto = std::get_if<std::string>(&dp->data);
  if (!proto) {
    diags.error({}, "Dispatch_Protocol of '" + thread.path +
                        "' must be an identifier");
    return std::nullopt;
  }
  const auto dispatch = parse_dispatch_protocol(*proto);
  if (!dispatch) {
    diags.error({}, "unsupported Dispatch_Protocol '" + *proto + "' on '" +
                        thread.path + "'");
    return std::nullopt;
  }
  tp.dispatch = *dispatch;

  const auto cet =
      time_range_property(model, thread, "compute_execution_time", diags);
  if (!cet) {
    diags.error({}, "thread '" + thread.path +
                        "' is missing Compute_Execution_Time (required)");
    return std::nullopt;
  }
  tp.compute_min_ns = cet->first;
  tp.compute_max_ns = cet->second;
  if (tp.compute_min_ns > tp.compute_max_ns) {
    diags.error({}, "Compute_Execution_Time of '" + thread.path +
                        "' has min > max");
    return std::nullopt;
  }

  // Deadline: Compute_Deadline wins over Deadline; default for periodic
  // threads is the period.
  auto dl = time_property(model, thread, "compute_deadline", diags);
  if (!dl) dl = time_property(model, thread, "deadline", diags);

  if (tp.dispatch == DispatchProtocol::Periodic ||
      tp.dispatch == DispatchProtocol::Sporadic) {
    const auto period = time_property(model, thread, "period", diags);
    if (!period) {
      diags.error({}, "thread '" + thread.path +
                          "' is missing Period (required for " +
                          std::string(to_string(tp.dispatch)) + ")");
      return std::nullopt;
    }
    tp.period_ns = *period;
    if (!dl) dl = tp.period_ns;  // implicit deadline
  }
  if (tp.dispatch == DispatchProtocol::Aperiodic && !dl) {
    diags.error({}, "aperiodic thread '" + thread.path +
                        "' is missing Deadline/Compute_Deadline (required)");
    return std::nullopt;
  }
  tp.deadline_ns = dl.value_or(0);  // 0 = none (background)

  if (const PropertyValue* prio = find_property(model, thread, "priority")) {
    if (const auto* iu = std::get_if<IntWithUnit>(&prio->data))
      tp.priority = static_cast<int>(iu->value);
  }
  return tp;
}

std::optional<SchedulingProtocol> scheduling_protocol(
    const InstanceModel& model, const ComponentInstance& processor,
    util::DiagnosticEngine& diags) {
  const PropertyValue* pv =
      find_property(model, processor, "scheduling_protocol");
  if (!pv) {
    diags.error({}, "processor '" + processor.path +
                        "' is missing Scheduling_Protocol (required when "
                        "threads are bound to it, §4.1)");
    return std::nullopt;
  }
  const std::string* name = std::get_if<std::string>(&pv->data);
  if (!name) {
    diags.error({}, "Scheduling_Protocol of '" + processor.path +
                        "' must be an identifier");
    return std::nullopt;
  }
  const std::string n = util::to_lower(*name);
  if (n.find("rate_monotonic") != std::string::npos || n == "rms" ||
      n == "rm")
    return SchedulingProtocol::RateMonotonic;
  if (n.find("deadline_monotonic") != std::string::npos || n == "dm")
    return SchedulingProtocol::DeadlineMonotonic;
  if (n.find("hpf") != std::string::npos ||
      n.find("highest_priority_first") != std::string::npos ||
      n.find("fixed_priority") != std::string::npos ||
      n.find("posix_1003_highest_priority_first") != std::string::npos)
    return SchedulingProtocol::HighestPriorityFirst;
  if (n.find("edf") != std::string::npos ||
      n.find("earliest_deadline_first") != std::string::npos)
    return SchedulingProtocol::Edf;
  if (n.find("llf") != std::string::npos ||
      n.find("least_laxity_first") != std::string::npos)
    return SchedulingProtocol::Llf;
  diags.error({}, "unsupported Scheduling_Protocol '" + *name + "' on '" +
                      processor.path + "'");
  return std::nullopt;
}

ConnectionProperties connection_properties(const InstanceModel& model,
                                           const SemanticConnection& conn,
                                           util::DiagnosticEngine& diags) {
  ConnectionProperties cp;
  if (const PropertyValue* pv =
          find_connection_property(model, conn, "queue_size")) {
    if (const auto* iu = std::get_if<IntWithUnit>(&pv->data)) {
      if (iu->value < 1 || iu->value > 1024) {
        diags.error({}, "Queue_Size of connection " + conn.describe() +
                            " out of range [1, 1024]");
      } else {
        cp.queue_size = static_cast<int>(iu->value);
      }
    }
  }
  if (const PropertyValue* pv = find_connection_property(
          model, conn, "overflow_handling_protocol")) {
    if (const auto* name = std::get_if<std::string>(&pv->data)) {
      if (util::iequals(*name, "error"))
        cp.overflow = OverflowProtocol::Error;
      else if (util::iequals(*name, "dropoldest"))
        cp.overflow = OverflowProtocol::DropOldest;
      else if (util::iequals(*name, "dropnewest"))
        cp.overflow = OverflowProtocol::DropNewest;
      else
        diags.warning({}, "unknown Overflow_Handling_Protocol '" + *name +
                              "' on " + conn.describe() +
                              "; defaulting to DropNewest");
    }
  }
  if (const PropertyValue* pv =
          find_connection_property(model, conn, "urgency")) {
    if (const auto* iu = std::get_if<IntWithUnit>(&pv->data))
      cp.urgency = static_cast<int>(iu->value);
  }
  return cp;
}

}  // namespace aadlsched::aadl
