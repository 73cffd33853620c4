#include "core/taskset_aadl.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/string_utils.hpp"

namespace aadlsched::core {

std::string_view protocol_property_name(sched::SchedulingPolicy policy) {
  switch (policy) {
    case sched::SchedulingPolicy::FixedPriority:
      return "POSIX_1003_HIGHEST_PRIORITY_FIRST_PROTOCOL";
    case sched::SchedulingPolicy::Edf:
      return "EDF_PROTOCOL";
    case sched::SchedulingPolicy::Llf:
      return "LLF_PROTOCOL";
  }
  return "RATE_MONOTONIC_PROTOCOL";
}

namespace {

std::string_view lock_protocol_property_name(sched::LockProtocol p) {
  switch (p) {
    case sched::LockProtocol::PriorityCeiling:
      return "PRIORITY_CEILING_PROTOCOL";
    case sched::LockProtocol::PriorityInheritance:
      return "PRIORITY_INHERITANCE_PROTOCOL";
    case sched::LockProtocol::None:
      break;
  }
  return "NONE_SPECIFIED";
}

std::string render(const sched::TaskSet& ts, sched::SchedulingPolicy policy,
                   const TasksetRenderOptions& opts,
                   const sched::ResourceModel* rm) {
  std::ostringstream os;
  const auto ns = [&](sched::Time quanta) {
    return std::to_string(quanta * opts.quantum_ns) + " ns";
  };

  // Provenance header: "-- " per line, before the package. The parser
  // skips comments, so this never changes the analyzed model.
  if (!opts.header_comment.empty()) {
    std::istringstream hdr(opts.header_comment);
    std::string line;
    while (std::getline(hdr, line)) os << "-- " << line << "\n";
    os << "\n";
  }

  // (task, resource) -> longest critical section; one access feature and
  // one connection per pair (the extractor keeps one duration per access).
  std::map<std::pair<std::size_t, std::size_t>, sched::Time> acc;
  if (rm)
    for (const sched::CriticalSection& cs : rm->sections) {
      auto [it, fresh] = acc.try_emplace({cs.task, cs.resource}, cs.duration);
      if (!fresh) it->second = std::max(it->second, cs.duration);
    }

  int max_cpu = 0;
  for (const sched::Task& t : ts.tasks)
    max_cpu = std::max(max_cpu, t.processor);

  os << "package Gen\npublic\n\n";
  os << "  processor GenCpu\n  properties\n    Scheduling_Protocol => "
     << protocol_property_name(policy) << ";\n  end GenCpu;\n\n";

  if (rm)
    for (std::size_t r = 0; r < rm->resources.size(); ++r)
      os << "  data R" << r << "\n  properties\n"
         << "    Concurrency_Control_Protocol => "
         << lock_protocol_property_name(rm->resources[r].protocol)
         << ";\n  end R" << r << ";\n\n";

  bool any_sporadic = false;
  for (const sched::Task& t : ts.tasks)
    any_sporadic |= t.kind == sched::DispatchKind::Sporadic ||
                    t.kind == sched::DispatchKind::Aperiodic;
  if (any_sporadic) {
    os << "  device Env\n  features\n    tick : out event port;\n"
          "  end Env;\n\n";
  }

  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const sched::Task& t = ts.tasks[i];
    const std::string name = util::concat({"T", std::to_string(i)});
    const bool triggered = t.kind == sched::DispatchKind::Sporadic ||
                           t.kind == sched::DispatchKind::Aperiodic;
    std::vector<std::size_t> used;
    if (rm)
      for (const auto& [key, dur] : acc)
        if (key.first == i) used.push_back(key.second);
    os << "  thread " << name << "\n";
    if (triggered || !used.empty()) {
      os << "  features\n";
      if (triggered) os << "    trig : in event port;\n";
      for (const std::size_t r : used)
        os << "    res" << r << " : requires data access R" << r << ";\n";
    }
    os << "  end " << name << ";\n\n";
    os << "  thread implementation " << name << ".impl\n  properties\n";
    switch (t.kind) {
      case sched::DispatchKind::Periodic:
        os << "    Dispatch_Protocol => Periodic;\n";
        os << "    Period => " << ns(t.period) << ";\n";
        break;
      case sched::DispatchKind::Sporadic:
        os << "    Dispatch_Protocol => Sporadic;\n";
        os << "    Period => " << ns(t.period) << ";\n";
        break;
      case sched::DispatchKind::Aperiodic:
        os << "    Dispatch_Protocol => Aperiodic;\n";
        break;
      case sched::DispatchKind::Background:
        os << "    Dispatch_Protocol => Background;\n";
        break;
    }
    os << "    Compute_Execution_Time => " << ns(t.effective_bcet())
       << " .. " << ns(t.wcet) << ";\n";
    if (t.kind != sched::DispatchKind::Background)
      os << "    Deadline => " << ns(t.deadline) << ";\n";
    if (policy == sched::SchedulingPolicy::FixedPriority)
      os << "    Priority => " << t.priority << ";\n";
    os << "  end " << name << ".impl;\n\n";
  }

  os << "  system Root\n  end Root;\n\n";
  os << "  system implementation Root.impl\n  subcomponents\n";
  for (int c = 0; c <= max_cpu; ++c)
    os << "    cpu" << c << " : processor GenCpu;\n";
  for (std::size_t i = 0; i < ts.tasks.size(); ++i)
    os << "    t" << i << " : thread T" << i << ".impl;\n";
  if (rm)
    for (std::size_t r = 0; r < rm->resources.size(); ++r)
      os << "    sh" << r << " : data R" << r << ";\n";
  // One environment device per triggered task so each queue has a source.
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const sched::Task& t = ts.tasks[i];
    if (t.kind == sched::DispatchKind::Sporadic ||
        t.kind == sched::DispatchKind::Aperiodic)
      os << "    env" << i << " : device Env;\n";
  }
  bool any_conn = false;
  std::ostringstream conns;
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const sched::Task& t = ts.tasks[i];
    if (t.kind == sched::DispatchKind::Sporadic ||
        t.kind == sched::DispatchKind::Aperiodic) {
      conns << "    c" << i << " : port env" << i << ".tick -> t" << i
            << ".trig;\n";
      any_conn = true;
    }
  }
  for (const auto& [key, dur] : acc) {
    conns << "    a" << key.first << "_" << key.second << " : data access t"
          << key.first << ".res" << key.second << " -> sh" << key.second
          << ";\n";
    any_conn = true;
  }
  if (any_conn) os << "  connections\n" << conns.str();
  os << "  properties\n";
  for (std::size_t i = 0; i < ts.tasks.size(); ++i)
    os << "    Actual_Processor_Binding => reference (cpu"
       << ts.tasks[i].processor << ") applies to t" << i << ";\n";
  // Sporadic environment devices fire at the task's minimum separation.
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const sched::Task& t = ts.tasks[i];
    if (t.kind == sched::DispatchKind::Sporadic)
      os << "    Period => " << ns(t.period) << " applies to env" << i
         << ";\n";
  }
  for (const auto& [key, dur] : acc)
    os << "    Critical_Section_Time => " << ns(dur) << " applies to a"
       << key.first << "_" << key.second << ";\n";
  os << "  end Root.impl;\n\nend Gen;\n";
  return os.str();
}

}  // namespace

std::string taskset_to_aadl(const sched::TaskSet& ts,
                            sched::SchedulingPolicy policy,
                            const TasksetRenderOptions& opts) {
  return render(ts, policy, opts, nullptr);
}

std::string taskset_to_aadl(const sched::TaskSet& ts,
                            sched::SchedulingPolicy policy,
                            std::int64_t quantum_ns) {
  TasksetRenderOptions opts;
  opts.quantum_ns = quantum_ns;
  return render(ts, policy, opts, nullptr);
}

std::string taskset_to_aadl_shared(const sched::TaskSet& ts,
                                   sched::SchedulingPolicy policy,
                                   const sched::ResourceModel& resources,
                                   const TasksetRenderOptions& opts) {
  return render(ts, policy, opts, &resources);
}

std::string taskset_to_aadl_shared(const sched::TaskSet& ts,
                                   sched::SchedulingPolicy policy,
                                   const sched::ResourceModel& resources,
                                   std::int64_t quantum_ns) {
  TasksetRenderOptions opts;
  opts.quantum_ns = quantum_ns;
  return render(ts, policy, opts, &resources);
}

}  // namespace aadlsched::core
