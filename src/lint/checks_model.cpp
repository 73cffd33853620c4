// Checks over the AADL instance model. Model hygiene (AL001..AL006):
// structural and property checks mirroring the paper's §4.1 preconditions
// and the §4.4 queue semantics. These catch the errors the translator would
// reject — plus the ones it silently tolerates (dead-end connection chains,
// unknown feature names, queue properties that translation ignores).
//
// The livelock check (AL012): the static shadow of the DESIGN.md §7
// livelock finding. A cycle of event connections between
// instantly-dispatching, instantly-completing threads lets dispatches chase
// each other without time ever advancing — the explorer only detects
// single-state instantaneous self-loops, not multi-state cycles, so we
// reject them up front. It reads the instance model (cmin and dispatch
// protocols), not the ACSR network; its tier keeps the name of the
// property it guards. The tier's two checks over translated terms,
// unguarded recursion (AL010) and Par3 resource conflicts (AL011), are
// invariants of the translator's output, tested over every shipped model,
// the corpus and generated fleets (tests/acsr_invariants.hpp), not
// per-request work.
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aadl/properties.hpp"
#include "lint/checks.hpp"
#include "util/numeric.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::lint {

namespace {

using aadl::ComponentInstance;
using aadl::ConnectionDecl;
using aadl::Direction;
using aadl::Feature;
using aadl::FeatureKind;
using aadl::InstanceModel;

void for_each_instance(const ComponentInstance* inst,
                       const std::function<void(const ComponentInstance&)>& f) {
  f(*inst);
  for (const auto& child : inst->children)
    for_each_instance(child.get(), f);
}

bool is_access(std::optional<FeatureKind> k) {
  return k && (*k == FeatureKind::BusAccess || *k == FeatureKind::DataAccess);
}

/// Raw timing view of a thread, read leniently: absent or malformed values
/// stay nullopt (AL004 reports missing mandatory properties; here we only
/// judge values that are present).
struct RawTiming {
  std::optional<aadl::DispatchProtocol> dispatch;
  std::optional<std::int64_t> period_ns;
  std::optional<std::int64_t> deadline_ns;  // Compute_Deadline wins
  std::optional<std::int64_t> cmin_ns, cmax_ns;
};

RawTiming read_timing(const InstanceModel& model,
                      const ComponentInstance& thread) {
  util::DiagnosticEngine scratch("<lint>");
  RawTiming rt;
  if (const aadl::PropertyValue* pv =
          aadl::find_property(model, thread, "dispatch_protocol"))
    if (const auto* s = std::get_if<std::string>(&pv->data))
      rt.dispatch = aadl::parse_dispatch_protocol(*s);
  rt.period_ns = aadl::time_property(model, thread, "period", scratch);
  rt.deadline_ns =
      aadl::time_property(model, thread, "compute_deadline", scratch);
  if (!rt.deadline_ns)
    rt.deadline_ns = aadl::time_property(model, thread, "deadline", scratch);
  // Unlike thread_properties, each bound stands alone: a bad minimum does
  // not hide a good maximum from AL005.
  if (const aadl::PropertyValue* pv =
          aadl::find_property(model, thread, "compute_execution_time")) {
    if (const auto* r = std::get_if<aadl::RangeValue>(&pv->data)) {
      rt.cmin_ns = aadl::time_to_ns(r->lo, scratch, {});
      rt.cmax_ns = aadl::time_to_ns(r->hi, scratch, {});
    } else if (const auto* iu = std::get_if<aadl::IntWithUnit>(&pv->data)) {
      rt.cmin_ns = rt.cmax_ns = aadl::time_to_ns(*iu, scratch, {});
    }
  }
  return rt;
}

// --- AL001 ----------------------------------------------------------------

void unbound_thread(const Subject& subject, Sink& sink) {
  const InstanceModel& m = subject.instance;
  for (const ComponentInstance* t : m.threads) {
    if (!m.bindings.count(t))
      sink.error(t->path,
                 "thread has no processor binding "
                 "(Actual_Processor_Binding is required, paper §4.1)");
  }
}

// --- AL002 ----------------------------------------------------------------

void check_endpoint(const ComponentInstance& inst,
                    const ConnectionDecl& cd,
                    const std::vector<std::string>& path,
                    bool is_source, Sink& sink) {
  const std::string where =
      (inst.path.empty() ? std::string("<root>") : inst.path) +
      " connection '" + cd.name + "'";
  if (path.empty() || path.size() > 2) return;  // parser/instantiator error
  const ComponentInstance* target = &inst;
  if (path.size() == 2) {
    target = inst.find_child(path[0]);
    if (!target) {
      sink.report(util::Severity::Error, cd.loc, where,
                  "endpoint '" + util::join(path, ".") +
                      "': no subcomponent '" + path[0] + "'");
      return;
    }
  }
  if (!target->type) return;  // unresolved classifier: cannot judge
  const std::string& port = path.back();
  const Feature* f = target->type->find_feature(port);
  if (!f) {
    // `extends` chains are not flattened by the front end; only claim
    // absence when the type stands alone.
    if (target->type->extends.empty()) {
      sink.report(util::Severity::Error, cd.loc, where,
                  "endpoint '" + util::join(path, ".") +
                      "': component type '" + target->type->display_name +
                      "' has no feature '" + port + "'");
    }
    return;
  }
  if (f->kind == FeatureKind::BusAccess || f->kind == FeatureKind::DataAccess)
    return;
  if (f->direction == Direction::InOut) return;
  // A 2-segment endpoint crosses into a child: sources must leave the
  // child (out), destinations enter it (in). A 1-segment endpoint is the
  // enclosing component's own boundary feature, where the polarity flips.
  const bool wants_out = (path.size() == 2) == is_source;
  const bool is_out = f->direction == Direction::Out;
  if (is_out != wants_out) {
    sink.report(util::Severity::Warning, cd.loc, where,
                "endpoint '" + util::join(path, ".") + "' uses " +
                    (is_out ? "an out" : "an in") + " port as a " +
                    (is_source ? "source" : "destination"));
  }
}

void check_decl(const ComponentInstance& inst,
                const ConnectionDecl& cd, Sink& sink) {
  check_endpoint(inst, cd, cd.source, /*is_source=*/true, sink);
  check_endpoint(inst, cd, cd.destination, /*is_source=*/false, sink);
}

void unresolved_endpoint(const Subject& subject, Sink& sink) {
  for_each_instance(subject.instance.root.get(),
                    [&](const ComponentInstance& inst) {
                      if (!inst.impl) return;
                      for (const ConnectionDecl& cd : inst.impl->connections)
                        if (!is_access(cd.kind) && !cd.bidirectional)
                          check_decl(inst, cd, sink);
                    });
}

// --- AL003 ----------------------------------------------------------------

void check_side(
    const ComponentInstance& inst, const ConnectionDecl& cd,
    const std::vector<std::string>& path,
    const std::set<std::pair<const ComponentInstance*, std::string>>& sem,
    bool is_source, Sink& sink) {
  if (path.size() != 2) return;
  const ComponentInstance* child = inst.find_child(path[0]);
  if (!child || !child->is_thread_or_device()) return;
  const Feature* f =
      child->type ? child->type->find_feature(path[1]) : nullptr;
  if (!f) return;  // AL002's business
  if (f->kind == FeatureKind::BusAccess || f->kind == FeatureKind::DataAccess)
    return;
  if (is_source && f->direction == Direction::In) return;
  if (!is_source && f->direction == Direction::Out) return;
  if (sem.count({child, util::to_lower(path[1])})) return;
  sink.report(util::Severity::Warning, cd.loc,
              child->path + "." + path[1],
              std::string(is_source ? "output" : "input") +
                  " port is connected (connection '" + cd.name +
                  "') but the chain never reaches a thread or device; "
                  "instantiation drops it silently");
}

void dead_end_connection(const Subject& subject, Sink& sink) {
  const InstanceModel& m = subject.instance;
  std::set<std::pair<const ComponentInstance*, std::string>> sem_src,
      sem_dst;
  for (const aadl::SemanticConnection& sc : m.connections) {
    sem_src.insert({sc.source, sc.source_port});
    sem_dst.insert({sc.destination, sc.destination_port});
  }
  for_each_instance(m.root.get(), [&](const ComponentInstance& inst) {
    if (!inst.impl) return;
    for (const ConnectionDecl& cd : inst.impl->connections) {
      if (is_access(cd.kind)) continue;
      check_side(inst, cd, cd.source, sem_src, /*is_source=*/true, sink);
      check_side(inst, cd, cd.destination, sem_dst, /*is_source=*/false,
                 sink);
    }
  });
}

// --- AL004 ----------------------------------------------------------------

void missing_property(const Subject& subject, Sink& sink) {
  const InstanceModel& m = subject.instance;
  for (const ComponentInstance* t : m.threads) {
    const RawTiming rt = read_timing(m, *t);
    if (!aadl::find_property(m, *t, "dispatch_protocol")) {
      sink.error(t->path, "missing Dispatch_Protocol (required, §4.1)");
    } else if (!rt.dispatch) {
      sink.error(t->path, "Dispatch_Protocol is not a supported protocol "
                          "(Periodic/Sporadic/Aperiodic/Background)");
    }
    if (!aadl::find_property(m, *t, "compute_execution_time"))
      sink.error(t->path, "missing Compute_Execution_Time (required)");
    if (rt.dispatch &&
        (*rt.dispatch == aadl::DispatchProtocol::Periodic ||
         *rt.dispatch == aadl::DispatchProtocol::Sporadic) &&
        !aadl::find_property(m, *t, "period"))
      sink.error(t->path, "missing Period (required for " +
                              std::string(to_string(*rt.dispatch)) + ")");
    if (rt.dispatch && *rt.dispatch == aadl::DispatchProtocol::Aperiodic &&
        !rt.deadline_ns)
      sink.error(t->path,
                 "missing Deadline/Compute_Deadline (required for "
                 "Aperiodic)");
  }
  for (const ComponentInstance* cpu : m.processors) {
    if (m.threads_on(cpu).empty()) continue;
    if (!aadl::find_property(m, *cpu, "scheduling_protocol"))
      sink.error(cpu->path,
                 "missing Scheduling_Protocol (required when threads are "
                 "bound, §4.1)");
  }
}

// --- AL005 ----------------------------------------------------------------

void inconsistent_timing(const Subject& subject, Sink& sink) {
  const InstanceModel& m = subject.instance;
  const std::int64_t q = subject.quantum_ns;
  for (const ComponentInstance* t : m.threads) {
    const RawTiming rt = read_timing(m, *t);
    if (rt.cmin_ns && rt.cmax_ns && *rt.cmin_ns > *rt.cmax_ns)
      sink.error(t->path, "Compute_Execution_Time has min > max");

    const bool periodic =
        rt.dispatch && *rt.dispatch == aadl::DispatchProtocol::Periodic;
    const bool sporadic =
        rt.dispatch && *rt.dispatch == aadl::DispatchProtocol::Sporadic;
    std::optional<std::int64_t> deadline = rt.deadline_ns;
    if (!deadline && periodic) deadline = rt.period_ns;  // implicit

    if ((periodic || sporadic) && rt.deadline_ns && rt.period_ns &&
        *rt.deadline_ns > *rt.period_ns) {
      if (periodic)
        sink.error(t->path,
                   "Deadline exceeds Period (the translator requires "
                   "constrained deadlines for periodic threads)");
      else
        sink.warning(t->path,
                     "Deadline exceeds the sporadic minimum separation "
                     "(Period); analysis treats it as unconstrained");
    }

    if (q > 0 && rt.period_ns && *rt.period_ns > 0 && *rt.period_ns / q == 0)
      sink.error(t->path,
                 "Period (" + std::to_string(*rt.period_ns) +
                     " ns) is smaller than the scheduling quantum (" +
                     std::to_string(q) +
                     " ns): it rounds down to zero quanta");

    if (q > 0 && rt.cmax_ns && deadline && *deadline > 0) {
      const std::int64_t cmax_q = util::ceil_div(*rt.cmax_ns, q);
      const std::int64_t dl_q = *deadline / q;
      if (dl_q > 0 && cmax_q > dl_q) {
        sink.error(t->path,
                   "worst-case execution time (" + std::to_string(cmax_q) +
                       " quanta) exceeds the deadline (" +
                       std::to_string(dl_q) +
                       " quanta) after quantization");
        // A periodic thread dispatches unconditionally, and the explorer
        // always contains the all-cmax execution (`done` is a choice), so
        // this miss is guaranteed reachable.
        if (periodic) {
          sink.conclusive(
              StaticVerdict::NotSchedulable,
              "periodic thread '" + t->path + "' cannot meet its deadline "
              "even alone (cmax " + std::to_string(cmax_q) +
                  " > deadline " + std::to_string(dl_q) + " quanta)");
          StaticCertificate cert;
          cert.kind = "wcet-exceeds-deadline";
          cert.schedulable = false;
          CertTask row;
          row.path = t->path;
          row.wcet_q = cmax_q;
          row.period_q = rt.period_ns ? *rt.period_ns / q : 0;
          row.deadline_q = dl_q;
          cert.tasks.push_back(std::move(row));
          cert.window_q = dl_q;
          cert.demand_q = cmax_q;
          sink.certificate(std::move(cert));
        }
      }
    }
  }
}

// --- AL006 ----------------------------------------------------------------

void queue_misconfig(const Subject& subject, Sink& sink) {
  const InstanceModel& m = subject.instance;
  for (const aadl::SemanticConnection& sc : m.connections) {
    const aadl::PropertyValue* qs =
        aadl::find_connection_property(m, sc, "queue_size");
    const aadl::PropertyValue* of =
        aadl::find_connection_property(m, sc, "overflow_handling_protocol");
    if (qs) {
      const auto* iu = std::get_if<aadl::IntWithUnit>(&qs->data);
      if (!iu)
        sink.error(sc.describe(), "Queue_Size must be an integer");
      else if (iu->value < 1 || iu->value > 1024)
        sink.error(sc.describe(),
                   "Queue_Size " + std::to_string(iu->value) +
                       " out of range [1, 1024]");
    }
    if (of) {
      const auto* s = std::get_if<std::string>(&of->data);
      if (!s || (!util::iequals(*s, "error") &&
                 !util::iequals(*s, "dropoldest") &&
                 !util::iequals(*s, "dropnewest")))
        sink.warning(sc.describe(),
                     "unknown Overflow_Handling_Protocol" +
                         (s ? " '" + *s + "'" : std::string()) +
                         "; translation defaults to DropNewest");
    }
    if (!qs && !of) continue;
    const bool is_event = sc.kind == FeatureKind::EventPort ||
                          sc.kind == FeatureKind::EventDataPort;
    if (!is_event) {
      sink.warning(sc.describe(),
                   "queue properties on a data port connection have no "
                   "effect (data ports are sampled, not queued)");
      continue;
    }
    if (sc.destination && sc.destination->category == aadl::Category::Thread) {
      const RawTiming rt = read_timing(m, *sc.destination);
      if (rt.dispatch &&
          (*rt.dispatch == aadl::DispatchProtocol::Periodic ||
           *rt.dispatch == aadl::DispatchProtocol::Background))
        sink.warning(sc.describe(),
                     "queue properties are ignored: translation only "
                     "instantiates queues for sporadic/aperiodic "
                     "destinations (§4.4), and '" + sc.destination->path +
                         "' is " + std::string(to_string(*rt.dispatch)));
    }
  }
}

// --- AL012 ----------------------------------------------------------------

void instantaneous_cycle(const Subject& subject, Sink& sink) {
  const aadl::InstanceModel& m = subject.instance;
  const std::int64_t q = subject.quantum_ns;
  if (q <= 0) return;

  // A thread can participate in an instantaneous dispatch cycle when it
  // is event-dispatched with no enforced separation and may complete
  // with zero quanta of execution.
  std::map<const aadl::ComponentInstance*, std::size_t> index;
  std::vector<const aadl::ComponentInstance*> nodes;
  for (const aadl::ComponentInstance* t : m.threads) {
    util::DiagnosticEngine scratch("<lint>");
    const auto tp = aadl::thread_properties(m, *t, scratch);
    if (!tp) continue;
    const bool instant_complete = tp->compute_min_ns <= 0;
    const bool instant_dispatch =
        tp->dispatch == aadl::DispatchProtocol::Aperiodic ||
        (tp->dispatch == aadl::DispatchProtocol::Sporadic &&
         tp->period_ns / q == 0);
    if (instant_complete && instant_dispatch) {
      index[t] = nodes.size();
      nodes.push_back(t);
    }
  }
  if (nodes.empty()) return;

  std::vector<std::vector<std::size_t>> adj(nodes.size());
  for (const aadl::SemanticConnection& sc : m.connections) {
    if (sc.kind != aadl::FeatureKind::EventPort &&
        sc.kind != aadl::FeatureKind::EventDataPort)
      continue;
    const auto s = index.find(sc.source);
    const auto d = index.find(sc.destination);
    if (s != index.end() && d != index.end())
      adj[s->second].push_back(d->second);
  }

  // Report each cycle once, anchored at its smallest-index member.
  std::set<std::string> reported;
  for (std::size_t start = 0; start < nodes.size(); ++start) {
    // Iterative DFS tracking the path explicitly; only cycles whose
    // smallest member is `start` are reported (succ < start is pruned).
    std::vector<std::pair<std::size_t, std::size_t>> frames;  // node, next
    frames.emplace_back(start, 0);
    std::set<std::size_t> visited{start};
    while (!frames.empty()) {
      auto& [node, next] = frames.back();
      if (next >= adj[node].size()) {
        frames.pop_back();
        continue;
      }
      const std::size_t succ = adj[node][next++];
      if (succ == start) {
        std::ostringstream cyc;
        for (const auto& fr : frames) cyc << nodes[fr.first]->path << " -> ";
        cyc << nodes[start]->path;
        if (reported.insert(cyc.str()).second) {
          sink.error(nodes[start]->path,
                     "instantaneous dispatch cycle: " + cyc.str() +
                         "; every hop dispatches and completes in zero "
                         "quanta, so dispatches can chase each other "
                         "forever without time advancing (livelock, "
                         "DESIGN.md §7). Give some thread a nonzero "
                         "Compute_Execution_Time minimum or a sporadic "
                         "separation of at least one quantum");
        }
        continue;
      }
      if (succ < start || !visited.insert(succ).second) continue;
      frames.emplace_back(succ, 0);
    }
  }
}

}  // namespace

// The catalogue cards of this file's checks; lint.cpp lists them in run
// order.

const Check kUnboundThread{
    {"AL001", "unbound-thread",
     "every thread must be bound to a processor (§4.1 precondition)",
     Tier::ModelHygiene},
    unbound_thread};

const Check kUnresolvedEndpoint{
    {"AL002", "unresolved-endpoint",
     "connection endpoints must name existing subcomponents and features "
     "with compatible directions",
     Tier::ModelHygiene},
    unresolved_endpoint};

const Check kDeadEndConnection{
    {"AL003", "dead-end-connection",
     "thread/device port connections should reach another thread or "
     "device (dead-end chains are silently dropped by instantiation)",
     Tier::ModelHygiene},
    dead_end_connection};

const Check kMissingProperty{
    {"AL004", "missing-property",
     "mandatory timing/dispatch/scheduling properties must be present "
     "(§4.1)",
     Tier::ModelHygiene},
    missing_property};

const Check kInconsistentTiming{
    {"AL005", "inconsistent-timing",
     "timing properties must be mutually consistent and survive "
     "quantization (cmin <= cmax, deadline <= period, period >= quantum)",
     Tier::ModelHygiene, "exact (refute-only)",
     "Mostly advisory hygiene, but a periodic thread whose quantized "
     "WCET exceeds its quantized deadline misses even when it runs "
     "alone, and the all-WCET execution is always a reachable branch of "
     "the exploration — so that specific finding refutes conclusively."},
    inconsistent_timing};

const Check kQueueMisconfig{
    {"AL006", "queue-misconfig",
     "Queue_Size/Overflow_Handling_Protocol must be valid and attached "
     "to a connection that actually gets a queue (§4.4)",
     Tier::ModelHygiene},
    queue_misconfig};

const Check kInstantaneousCycle{
    {"AL012", "instantaneous-cycle",
     "event-connection cycles between instantly-dispatching, "
     "instantly-completing threads livelock without advancing time "
     "(DESIGN.md §7)",
     Tier::AcsrWellFormedness},
    instantaneous_cycle};

}  // namespace aadlsched::lint
