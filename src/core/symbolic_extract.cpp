#include "core/symbolic_extract.hpp"

#include <algorithm>

#include "aadl/properties.hpp"
#include "translate/timing.hpp"

namespace aadlsched::core {

namespace {

/// Per-thread raw data gathered before priority assignment.
struct Extracted {
  const aadl::ComponentInstance* inst = nullptr;
  const aadl::ComponentInstance* cpu = nullptr;
  aadl::ThreadProperties props;
  std::int64_t offset_ns = 0;
  int priority = 0;
};

}  // namespace

std::string SymbolicExtraction::why() const {
  std::string out;
  for (const std::string& r : reasons) {
    if (!out.empty()) out += "; ";
    out += r;
  }
  return out;
}

SymbolicExtraction extract_symbolic(
    const aadl::InstanceModel& instance,
    const translate::TranslateOptions& topts) {
  SymbolicExtraction out;
  auto refuse = [&out](std::string reason) {
    out.reasons.push_back(std::move(reason));
  };

  if (topts.time_model != translate::ExecutionTimeModel::CommittedDemand)
    refuse("late-completion execution-time model");
  if (!topts.latency_specs.empty()) refuse("end-to-end latency observers");
  if (!instance.devices.empty())
    refuse("device components (event sources)");
  for (const aadl::SemanticConnection& sc : instance.connections) {
    if (sc.bus)
      refuse("bus-bound connection " + sc.describe());
  }

  // Thread preconditions. Property extraction reports its own errors; here
  // they just mean "outside the fragment", so diagnostics go to a scratch
  // engine and the reason names the thread.
  util::DiagnosticEngine scratch("<symbolic-extract>");
  std::vector<Extracted> threads;
  for (const aadl::ComponentInstance* t : instance.threads) {
    auto props = aadl::thread_properties(instance, *t, scratch);
    if (!props) {
      refuse("thread '" + t->path + "' has incomplete timing properties");
      continue;
    }
    if (props->dispatch != aadl::DispatchProtocol::Periodic) {
      refuse("thread '" + t->path + "' is " +
             std::string(aadl::to_string(props->dispatch)) +
             " (only periodic threads are in the fragment)");
      continue;
    }
    if (props->deadline_ns <= 0 || props->deadline_ns > props->period_ns) {
      refuse("thread '" + t->path + "' deadline is not constrained");
      continue;
    }
    const auto binding = instance.bindings.find(t);
    if (binding == instance.bindings.end()) {
      refuse("thread '" + t->path + "' is not bound to a processor");
      continue;
    }
    Extracted e;
    e.inst = t;
    e.cpu = binding->second;
    e.props = *props;
    // A one-nanosecond quantum keeps the translator's offset clamp exact.
    e.offset_ns = translate::quantize(
        *props, translate::dispatch_offset_ns(instance, *t, scratch)
                    .value_or(0), 1).offset;
    threads.push_back(e);
  }

  // Event-driven dispatch needs queues, which the fragment excludes. With
  // every thread periodic the translator ignores event connections (§2:
  // periodic threads ignore external events), so only the thread check
  // above matters — data-port connections are timing-neutral.

  // Priorities per processor by the translator's rule over nanosecond keys,
  // which order as quanta do whenever the quantum divides every key
  // (DESIGN.md §16). Processors and group members keep model order.
  std::vector<const aadl::ComponentInstance*> cpus;
  for (const aadl::ComponentInstance* cpu : instance.processors) {
    std::vector<Extracted*> group;
    for (Extracted& e : threads)
      if (e.cpu == cpu) group.push_back(&e);
    if (group.empty()) continue;
    cpus.push_back(cpu);
    auto proto = aadl::scheduling_protocol(instance, *cpu, scratch);
    if (!proto) {
      refuse("processor '" + cpu->path + "' has no scheduling protocol");
      continue;
    }
    if (*proto == aadl::SchedulingProtocol::Edf ||
        *proto == aadl::SchedulingProtocol::Llf) {
      refuse("processor '" + cpu->path + "' uses a dynamic-priority " +
             "protocol (" + std::string(aadl::to_string(*proto)) + ")");
      continue;
    }
    std::vector<translate::PriorityInput> inputs;
    for (const Extracted* e : group)
      inputs.push_back({e->props.dispatch, e->props.period_ns,
                        e->props.deadline_ns, e->props.priority.value_or(0)});
    const std::vector<int> prio =
        translate::assign_priorities(*proto, inputs).priorities;
    // The fragment's own HPF precondition is a declared Priority; an
    // undeclared one counts as 0 and stays out of the tie check.
    const bool hpf = *proto == aadl::SchedulingProtocol::HighestPriorityFirst;
    for (std::size_t i = 0; i < group.size(); ++i) {
      group[i]->priority = prio[i];
      if (!hpf || group[i]->props.priority) continue;
      refuse("thread '" + group[i]->inst->path +
             "' has no Priority under HPF scheduling");
      group[i]->priority = 0;
    }
    // RM/DM ranks are distinct by construction; HPF ones may tie.
    for (std::size_t a = 0; a < group.size(); ++a)
      for (std::size_t b = a + 1; b < group.size(); ++b)
        if (group[a]->priority == group[b]->priority &&
            group[a]->priority != 0)
          refuse("threads '" + group[a]->inst->path + "' and '" +
                 group[b]->inst->path +
                 "' share an HPF priority (ambiguous preemption)");
  }

  if (!out.reasons.empty()) return out;

  out.model.cpu_count = cpus.size();
  for (const Extracted& e : threads) {
    versa::SymbolicTask t;
    t.path = e.inst->path;
    t.period_ns = e.props.period_ns;
    t.deadline_ns = e.props.deadline_ns;
    t.cmin_ns = e.props.compute_min_ns;
    t.cmax_ns = e.props.compute_max_ns;
    t.offset_ns = e.offset_ns;
    t.priority = e.priority;
    t.cpu = static_cast<std::size_t>(
        std::find(cpus.begin(), cpus.end(), e.cpu) - cpus.begin());
    out.model.tasks.push_back(std::move(t));
  }
  if (auto invalid = versa::validate_model(out.model); !invalid.empty()) {
    out.reasons = std::move(invalid);
    return out;
  }
  out.applicable = true;
  return out;
}

}  // namespace aadlsched::core
