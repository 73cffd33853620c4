#include "core/taskset_extract.hpp"

#include <map>

#include "lint/screen_view.hpp"

namespace aadlsched::core {

std::optional<ExtractedTaskSet> extract_taskset(
    const aadl::InstanceModel& model, std::int64_t quantum_ns,
    util::DiagnosticEngine& diags) {
  ExtractedTaskSet out;

  const auto processor_index =
      [&](const aadl::ComponentInstance* cpu) -> std::optional<int> {
    for (std::size_t i = 0; i < out.processor_paths.size(); ++i)
      if (out.processor_paths[i] == cpu->path) return static_cast<int>(i);
    const auto proto = aadl::scheduling_protocol(model, *cpu, diags);
    if (!proto) return std::nullopt;
    out.processor_paths.push_back(cpu->path);
    out.protocols.push_back(*proto);
    return static_cast<int>(out.processor_paths.size() - 1);
  };

  // Timing and priorities are the screen view's (the translator's rule);
  // it only skips the threads the loop below reports.
  const std::vector<lint::ScreenCpu> cpus =
      lint::extract_screen_cpus(model, quantum_ns);
  std::map<const aadl::ComponentInstance*, const lint::ScreenTask*> view;
  for (const lint::ScreenCpu& sc : cpus)
    for (const lint::ScreenTask& t : sc.tasks) view[t.inst] = &t;

  for (const aadl::ComponentInstance* thread : model.threads) {
    const auto binding = model.bindings.find(thread);
    if (binding == model.bindings.end()) {
      diags.error({}, "thread '" + thread->path + "' is not bound");
      return std::nullopt;
    }
    const auto props = aadl::thread_properties(model, *thread, diags);
    if (!props) return std::nullopt;
    const auto cpu = processor_index(binding->second);
    if (!cpu) return std::nullopt;

    const lint::ScreenTask& st = *view.at(thread);
    sched::Task task;
    task.name = thread->path;
    task.wcet = st.quanta.cmax;
    task.bcet = st.quanta.cmin;
    task.period = st.quanta.period;
    task.deadline = st.quanta.deadline;
    task.priority = st.priority;
    task.processor = *cpu;
    switch (props->dispatch) {
      case aadl::DispatchProtocol::Periodic:
        task.kind = sched::DispatchKind::Periodic;
        break;
      case aadl::DispatchProtocol::Sporadic:
        task.kind = sched::DispatchKind::Sporadic;
        break;
      case aadl::DispatchProtocol::Aperiodic:
        task.kind = sched::DispatchKind::Aperiodic;
        // No arrival bound: the classical view has to pick one; use the
        // deadline as a (lossy) minimum separation.
        task.period = task.deadline;
        out.lossy = true;
        break;
      case aadl::DispatchProtocol::Background:
        task.kind = sched::DispatchKind::Background;
        break;
    }
    out.tasks.tasks.push_back(std::move(task));
  }

  // Event connections / queues / bus bindings have no classical
  // counterpart: flag the extraction as lossy.
  if (!lint::model_is_pure(model)) out.lossy = true;

  return out;
}

}  // namespace aadlsched::core
