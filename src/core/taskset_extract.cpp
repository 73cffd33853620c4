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

    sched::Task task = lint::to_task(*view.at(thread));
    task.processor = *cpu;
    if (task.kind == sched::DispatchKind::Aperiodic) {
      // No arrival bound: the classical view has to pick one; use the
      // deadline as a (lossy) minimum separation.
      task.period = task.deadline;
      out.lossy = true;
    }
    // A period below one quantum is refused, as lint's AL005 and the
    // translator refuse it; the classical analyses would divide by it.
    if (task.kind != sched::DispatchKind::Background && task.period < 1) {
      const bool aperiodic =
          props->dispatch == aadl::DispatchProtocol::Aperiodic;
      diags.error({}, thread->path + ": " +
                          (aperiodic ? "Deadline (" : "Period (") +
                          std::to_string(aperiodic ? props->deadline_ns
                                                   : props->period_ns) +
                          " ns) is smaller than the scheduling quantum (" +
                          std::to_string(quantum_ns) +
                          " ns): it rounds down to zero quanta");
      return std::nullopt;
    }
    out.tasks.tasks.push_back(std::move(task));
  }

  // Event connections / queues / bus bindings have no classical
  // counterpart: flag the extraction as lossy.
  if (!lint::model_is_pure(model)) out.lossy = true;

  return out;
}

}  // namespace aadlsched::core
