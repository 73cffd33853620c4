// Quantized per-processor task view shared by the screening and exact
// lint tiers and core::extract_taskset. Parameters and priorities come
// from translate/timing.hpp, the translator's own rule, so static analyses
// see exactly the parameters exploration would. Unlike the translator it
// keeps going past incomplete threads and applies no cap on quanta
// (AL007 must still refute models the translator cannot take).
// lint::run builds the view once per run (Subject::screen).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/properties.hpp"
#include "sched/task.hpp"
#include "translate/timing.hpp"

namespace aadlsched::lint {

struct ScreenTask {
  const aadl::ComponentInstance* inst = nullptr;
  aadl::DispatchProtocol dispatch = aadl::DispatchProtocol::Periodic;
  translate::QuantizedTiming quanta;
  /// Effective scheduling priority (translate::assign_priorities); larger
  /// is more important. Meaningless when ScreenCpu::priorities_ok is false.
  int priority = 0;
};

struct ScreenCpu {
  const aadl::ComponentInstance* cpu = nullptr;
  std::optional<aadl::SchedulingProtocol> protocol;
  std::vector<ScreenTask> tasks;  // model order (= translator order)
  bool complete = true;  // every bound thread yielded full, valid timing
  /// False when HPF is selected but some non-background thread lacks the
  /// required Priority property (the translator errors there).
  bool priorities_ok = true;
};

/// The view of every thread-bearing processor at the given quantum (empty
/// when the quantum is not positive).
std::vector<ScreenCpu> extract_screen_cpus(const aadl::InstanceModel& m,
                                           std::int64_t quantum_ns);

/// The classical task of a screen task: its path, quantized timing,
/// effective priority and dispatch kind, on processor 0.
sched::Task to_task(const ScreenTask& t);

/// Exact utilization comparison over the quantized view: returns the sign
/// of (sum cmax/period) - 1 as -1/0/+1, or nullopt when the fraction
/// outgrows util::ExactUtilization's cap.
std::optional<int> utilization_vs_one(const std::vector<ScreenTask>& tasks,
                                      bool periodic_only);

double utilization_double(const std::vector<ScreenTask>& tasks,
                          bool periodic_only);

std::string utilization_string(const std::vector<ScreenTask>& tasks,
                               bool periodic_only);

/// Is the whole model free of features the classical per-processor task
/// abstraction cannot express (event chains, bus contention)? Data access
/// connections do not count against purity: exploration ignores them, and
/// the blocking-aware checks over-approximate them.
bool model_is_pure(const aadl::InstanceModel& m);

/// All tasks periodic with implicit deadlines (deadline == period) after
/// quantization — the fragment of the utilization-bound screens.
bool all_periodic_implicit(const ScreenCpu& sc);

/// All tasks periodic with constrained deadlines (1 <= deadline <= period)
/// after quantization — the fragment of the exact RTA/QPA screens.
bool all_periodic_constrained(const ScreenCpu& sc);

/// Do all tasks dispatch synchronously (no Dispatch_Offset)? The critical
/// instant behind the NotSchedulable witnesses needs a synchronous release.
bool all_zero_offsets(const ScreenCpu& sc);

}  // namespace aadlsched::lint
