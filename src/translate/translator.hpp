// AADL -> ACSR translation (the paper's §4, Algorithm 1).
//
// For every processor p and every thread t bound to p we generate:
//   * a thread skeleton (Fig. 4/5): AwaitDispatch and Compute[e, t] states,
//     computation steps on the processor resource guarded by priorities,
//     a Preempted alternative that lets time pass without the cpu, and a
//     completion cascade that raises the thread's output events and `done`;
//   * a dispatcher (Fig. 6): periodic / aperiodic / sporadic / background,
//     which sends `dispatch`, tracks the deadline, and *blocks* (inducing a
//     global deadlock) when the deadline passes without `done` (§4.3);
//   * a queue process per incoming event(-data) semantic connection of a
//     non-periodic thread (§4.4), a counter with Queue_Size and
//     Overflow_Handling_Protocol semantics;
// plus event generators for device-sourced connections, bus resources on
// the possibly-final computation steps of threads whose outgoing data
// connections are bound to a bus (§4.2), and priority encodings for the
// processor's Scheduling_Protocol: RM / DM / HPF are static assignments,
// EDF uses pi = dmax - (d_i - t) and LLF the laxity variant (§5).
//
// Event priorities implement the paper's urgency semantics:
//   * dispatch and queue hand-off taus carry positive priority, so they
//     preempt timed actions — dispatches happen at the boundary where they
//     become possible;
//   * `done` carries priority 0, so completion anywhere in
//     [Compute_Execution_Time.min, .max] stays a nondeterministic *choice*
//     and exploration covers every execution time (the point of §6);
//   * device-sourced event injections carry priority 0: the environment
//     may or may not produce an event at any boundary.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/properties.hpp"
#include "acsr/builder.hpp"
#include "util/diagnostics.hpp"

namespace aadlsched::translate {

enum class ExecutionTimeModel : std::uint8_t {
  /// The demand of a dispatch is drawn adversarially from
  /// [Compute_Execution_Time.min, .max] when execution starts, and the
  /// thread then needs exactly that much processor time. This matches the
  /// classical WCET interpretation (and RTA / demand analysis / the
  /// simulator), and is the default.
  CommittedDemand,
  /// Literal Fig. 5: the thread may take the completion exit at any point
  /// with at least cmin quanta executed, deciding as late as the deadline.
  /// Under this reading a preempted thread can still "finish small", so
  /// systems that miss only when the demand exceeds cmin are reported
  /// schedulable — a genuine semantic gap we found while reproducing the
  /// paper (see DESIGN.md).
  LateCompletion,
};

/// End-to-end latency requirement over a flow from the dispatch of a
/// source thread to the completion of a sink thread (§5: observer
/// processes; exact for non-pipelined flows — the paper notes pipelined
/// inputs would need dynamically spawned observers).
struct LatencySpec {
  std::string source_path;  // AADL instance path of the source thread
  std::string sink_path;    // AADL instance path of the sink thread
  std::int64_t max_latency_ns = 0;
};

struct TranslateOptions {
  /// Scheduling quantum. All AADL times are divided by this; execution
  /// times round up, periods and deadlines round down (conservative).
  std::int64_t quantum_ns = 10'000'000;  // 10 ms
  ExecutionTimeModel time_model = ExecutionTimeModel::CommittedDemand;
  /// Give each thread's dispatch event a distinct priority so the commuting
  /// dispatch taus of one instant happen in a canonical order instead of
  /// every interleaving. Sound (the taus touch disjoint components) and
  /// cuts the explored space roughly 2^n -> n per simultaneous-dispatch
  /// boundary; bench_statespace ablates it.
  bool ordered_instants = true;
  /// End-to-end latency observers to synthesize (§5).
  std::vector<LatencySpec> latency_specs;
};

struct TranslatedThread {
  const aadl::ComponentInstance* inst = nullptr;
  std::string path;        // instance path
  std::string mangled;     // identifier-safe path
  aadl::DispatchProtocol dispatch = aadl::DispatchProtocol::Periodic;
  std::int64_t cmin = 0, cmax = 0, period = 0, deadline = 0;  // quanta
  int static_priority = 0;  // 0 when the protocol is dynamic (EDF/LLF)
  std::string cpu_resource;
  acsr::DefId compute_def = acsr::kInvalidDef;
  acsr::DefId await_def = acsr::kInvalidDef;
};

struct TranslatedQueue {
  std::string connection;  // semantic connection description
  std::string mangled;
  int size = 1;
  aadl::OverflowProtocol overflow = aadl::OverflowProtocol::DropNewest;
  acsr::DefId def = acsr::kInvalidDef;
};

struct TranslatedObserver {
  std::string description;  // "source -> sink within N quanta"
  std::string source_path;
  std::string sink_path;
  std::int64_t latency = 0;  // quanta
};

struct Translation {
  acsr::TermId initial = acsr::kNil;
  std::vector<TranslatedThread> threads;
  std::vector<TranslatedQueue> queues;
  std::vector<TranslatedObserver> observers;
  std::vector<std::string> restricted_events;
  std::int64_t quantum_ns = 0;

  const TranslatedThread* thread_by_path(std::string_view path) const;
};

/// A model that passed validate(): its threads quantized and prioritized,
/// its queues, device generators and latency observers resolved. It holds
/// no acsr::Context. Only build() reads it.
class Plan {
 public:
  struct Data;
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  ~Plan();

 private:
  explicit Plan(std::unique_ptr<Data> data);
  std::unique_ptr<Data> data_;

  friend std::optional<Plan> validate(const aadl::InstanceModel& model,
                                      util::DiagnosticEngine& diags,
                                      const TranslateOptions& opts);
  friend Translation build(acsr::Context& ctx, Plan plan);
};

/// The first step of translate(), and the only one that can fail: checks
/// the paper's §4.1 preconditions (at least one thread and one processor,
/// every thread bound, mandatory properties present) and the translator's
/// own limits on the instance model alone, reporting violations and every
/// rounded time to `diags`. Returns nullopt on error.
std::optional<Plan> validate(const aadl::InstanceModel& model,
                             util::DiagnosticEngine& diags,
                             const TranslateOptions& opts = {});

/// The second step: the ACSR process network of a validated model, in
/// `ctx`. Reports nothing.
Translation build(acsr::Context& ctx, Plan plan);

/// validate() then build(): translate a bound AADL instance model into an
/// ACSR process network in `ctx`. Returns nullopt on error.
std::optional<Translation> translate(acsr::Context& ctx,
                                     const aadl::InstanceModel& model,
                                     util::DiagnosticEngine& diags,
                                     const TranslateOptions& opts = {});

}  // namespace aadlsched::translate
