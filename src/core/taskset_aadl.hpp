// Bridge from the classical task model to AADL source text.
//
// Renders a sched::TaskSet as a complete, bound AADL system (one processor
// per Task::processor value, one periodic/sporadic thread per task). This
// is how the cross-validation experiments (EXPERIMENTS.md E1/E3) drive the
// full pipeline — parser, instantiation, translation, exploration — from
// randomly generated workloads, and compare the verdict against RTA, EDF
// demand analysis and the hyperperiod simulator.
#pragma once

#include <string>

#include "sched/blocking.hpp"
#include "sched/simulator.hpp"
#include "sched/task.hpp"

namespace aadlsched::core {

/// Scheduling protocol names accepted by the AADL front end.
std::string_view protocol_property_name(sched::SchedulingPolicy policy);

/// Presentation knobs for the generated AADL text, always package "Gen"
/// with root implementation "Root.impl". The defaults reproduce the
/// historical output byte for byte; the experiment harness sets a header so
/// each generated model file is self-describing (which spec cell and seed
/// produced it) without a side-channel manifest.
struct TasksetRenderOptions {
  /// Free-text provenance rendered as leading "-- " comment lines (split on
  /// '\n'). Empty = no header. Comments are ignored by the parser, so two
  /// renders differing only here have identical analysis fingerprints only
  /// if the daemon fingerprints the *model text* — they do not; keep the
  /// header identical across backends when byte-identical caching matters.
  std::string header_comment;
  /// Task times are interpreted as multiples of this quantum.
  std::int64_t quantum_ns = 1'000'000;
};

/// Render the task set as a complete, bound AADL system (see
/// TasksetRenderOptions). Sporadic tasks get a
/// device-driven incoming event connection (the device fires at the task's
/// minimum separation).
std::string taskset_to_aadl(const sched::TaskSet& ts,
                            sched::SchedulingPolicy policy,
                            const TasksetRenderOptions& opts);

/// Back-compat shim: no header.
std::string taskset_to_aadl(const sched::TaskSet& ts,
                            sched::SchedulingPolicy policy,
                            std::int64_t quantum_ns = 1'000'000);

/// Like taskset_to_aadl, but additionally renders the resource model as
/// shared data components: one `data R<j>` per resource (carrying its
/// Concurrency_Control_Protocol), a `requires data access` feature plus an
/// access connection per critical section, and a Critical_Section_Time
/// association per connection. Durations are multiples of `quantum_ns`.
/// This drives the shared-resource agreement experiments (EXPERIMENTS.md
/// E12) through the same front end the AL015/AL016 checks read.
std::string taskset_to_aadl_shared(const sched::TaskSet& ts,
                                   sched::SchedulingPolicy policy,
                                   const sched::ResourceModel& resources,
                                   const TasksetRenderOptions& opts);

/// Back-compat shim: no header.
std::string taskset_to_aadl_shared(const sched::TaskSet& ts,
                                   sched::SchedulingPolicy policy,
                                   const sched::ResourceModel& resources,
                                   std::int64_t quantum_ns = 1'000'000);

}  // namespace aadlsched::core
