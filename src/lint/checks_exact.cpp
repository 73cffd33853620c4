// Exact static verdict tier (AL013..AL016): response-time analysis, EDF
// processor-demand analysis, and blocking-aware variants over shared
// resources. Soundness contract with exploration (DESIGN.md §14):
//
//   * Schedulable vouches follow the AL008/AL009 discipline (pure model,
//     periodic threads, per-processor claim promoted by the driver) but
//     use the exact tests, so they cover strictly more models. AL013
//     charges equal-priority tasks as mutual interference — the
//     pessimistic reading required because exploration enumerates every
//     tie interleaving.
//   * NotSchedulable claims additionally require synchronous release (no
//     Dispatch_Offset) and, for fixed priorities, distinct effective
//     priorities; then the synchronous busy-period witness is a schedule
//     prefix exploration itself reaches (the all-WCET branch is always a
//     choice), so a computed overload is a guaranteed deadlock.
//   * AL015 only ever vouches: exploration walks the lock-free model, and
//     response times with blocking terms dominate response times without,
//     so "schedulable even with blocking" implies exploration agreement —
//     while documenting a strictly stronger claim than exploration can
//     check. It never refutes (a blocking-induced miss is invisible to
//     the explorer, and claiming it would break the agreement contract).
//   * AL016 is advisory: it flags shared-resource hazards (no protocol,
//     unbounded inversion, missing section bounds, cross-processor
//     sharing) that the verdict machinery deliberately ignores.
//
// Every conclusive or per-processor claim carries a StaticCertificate
// with the exact quantized parameters, so an independent checker can
// replay the fixed point / demand bound without trusting this code.
#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aadl/resources.hpp"
#include "lint/checks.hpp"
#include "lint/screen_view.hpp"
#include "sched/analysis.hpp"
#include "sched/blocking.hpp"
#include "util/numeric.hpp"

namespace aadlsched::lint {

namespace {

using aadl::DispatchProtocol;
using aadl::SchedulingProtocol;

/// QPA horizons above this are not worth the static check (the bound is
/// hyperperiod-sized on pathological period sets); the check abstains.
constexpr sched::Time kQpaHorizonCap = sched::Time{1} << 22;

bool fixed_priority_protocol(SchedulingProtocol p) {
  return p == SchedulingProtocol::RateMonotonic ||
         p == SchedulingProtocol::DeadlineMonotonic ||
         p == SchedulingProtocol::HighestPriorityFirst;
}

sched::TaskSet to_taskset(const ScreenCpu& sc) {
  sched::TaskSet ts;
  for (const ScreenTask& t : sc.tasks) ts.tasks.push_back(to_task(t));
  return ts;
}

bool distinct_priorities(const ScreenCpu& sc) {
  std::set<int> seen;
  for (const ScreenTask& t : sc.tasks)
    if (!seen.insert(t.priority).second) return false;
  return true;
}

/// Level-i demand at window t under the synchronous release: the task's own
/// WCET plus every higher-priority release in [0, t). Used for the
/// NotSchedulable witness (distinct priorities required by the caller).
sched::Time level_demand(const sched::TaskSet& ts, std::size_t i,
                         sched::Time t) {
  sched::Time demand = ts.tasks[i].wcet;
  for (std::size_t j = 0; j < ts.tasks.size(); ++j) {
    if (j == i || ts.tasks[j].priority <= ts.tasks[i].priority) continue;
    demand += util::ceil_div(t, ts.tasks[j].period) * ts.tasks[j].wcet;
  }
  return demand;
}

// --- AL013 ----------------------------------------------------------------

void exact_rta(const Subject& subject, Sink& sink) {
  if (!model_is_pure(subject.instance)) return;
  for (const ScreenCpu& sc : subject.screen) {
    if (!sc.complete || !sc.protocol || !sc.priorities_ok) continue;
    if (!fixed_priority_protocol(*sc.protocol)) continue;
    if (!all_periodic_constrained(sc)) continue;

    const sched::TaskSet ts = to_taskset(sc);
    const auto pessimistic =
        sched::response_time_analysis(ts, nullptr, /*ties_interfere=*/true);
    if (pessimistic.verdict == sched::Verdict::Schedulable) {
      sched::Time worst = 0;
      for (const sched::Time r : pessimistic.response)
        worst = std::max(worst, r);
      std::ostringstream os;
      os << "exact RTA holds: every response time meets its deadline "
            "(worst " << worst << " quanta, ties counted as interference)";
      sink.note(sc.cpu->path, os.str());
      sink.processor_verdict(sc.cpu->path, true, os.str());
      StaticCertificate cert;
      cert.kind = "fp-response-bound";
      cert.processor = sc.cpu->path;
      cert.schedulable = true;
      cert.tasks = cert_rows(sc, false, nullptr, &pessimistic.response);
      sink.certificate(std::move(cert));
      continue;
    }

    // Refutation needs the deterministic fragment: distinct priorities
    // and synchronous release, so the synchronous busy period is the
    // real worst case and the index tie-break never matters.
    if (!distinct_priorities(sc) || !all_zero_offsets(sc)) continue;
    const auto exact = sched::response_time_analysis(ts);
    if (exact.verdict != sched::Verdict::Unschedulable) continue;
    for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
      const bool missed = exact.response[i] < 0 ||
                          exact.response[i] > ts.tasks[i].deadline;
      if (!missed) continue;
      const sched::Time window = ts.tasks[i].deadline;
      const sched::Time demand = level_demand(ts, i, window);
      if (demand <= window) continue;  // defensive; cannot happen
      sink.error(sc.cpu->path,
                 "response-time analysis proves a deadline miss: '" +
                     ts.tasks[i].name + "' needs " +
                     std::to_string(demand) + " quanta of level-" +
                     std::to_string(ts.tasks[i].priority) +
                     " demand inside its deadline window of " +
                     std::to_string(window));
      sink.conclusive(StaticVerdict::NotSchedulable,
                      "thread '" + ts.tasks[i].name +
                          "' provably misses its deadline under "
                          "fixed-priority scheduling (demand " +
                          std::to_string(demand) + " > window " +
                          std::to_string(window) + " quanta)");
      StaticCertificate cert;
      cert.kind = "fp-overload-witness";
      cert.processor = sc.cpu->path;
      cert.schedulable = false;
      cert.tasks = cert_rows(sc, false);
      // Witness row first so checkers know which task misses.
      std::stable_partition(
          cert.tasks.begin(), cert.tasks.end(),
          [&](const CertTask& row) { return row.path == ts.tasks[i].name; });
      cert.window_q = window;
      cert.demand_q = demand;
      sink.certificate(std::move(cert));
      break;  // one witness per processor is enough
    }
  }
}

// --- AL014 ----------------------------------------------------------------

void edf_qpa(const Subject& subject, Sink& sink) {
  if (!model_is_pure(subject.instance)) return;
  for (const ScreenCpu& sc : subject.screen) {
    if (!sc.complete || !sc.protocol) continue;
    if (*sc.protocol != SchedulingProtocol::Edf &&
        *sc.protocol != SchedulingProtocol::Llf)
      continue;
    if (!all_periodic_constrained(sc)) continue;

    const sched::TaskSet ts = to_taskset(sc);
    if (ts.utilization() > 1.0) continue;  // AL007 refutes overload exactly
    const sched::Time bound = sched::edf_check_bound(ts);
    if (bound > kQpaHorizonCap) {
      sink.note(sc.cpu->path,
                "QPA horizon of " + std::to_string(bound) +
                    " quanta exceeds the static-analysis cap; leaving "
                    "this processor to exploration");
      continue;
    }
    const auto res = sched::edf_qpa(ts);
    if (res.verdict == sched::Verdict::Schedulable) {
      std::ostringstream os;
      os << "EDF demand analysis holds: dbf(t) <= t for every deadline "
            "up to " << bound << " quanta";
      sink.note(sc.cpu->path, os.str());
      sink.processor_verdict(sc.cpu->path, true, os.str());
      StaticCertificate cert;
      cert.kind = "edf-demand";
      cert.processor = sc.cpu->path;
      cert.schedulable = true;
      cert.tasks = cert_rows(sc, false);
      cert.window_q = bound;
      sink.certificate(std::move(cert));
      continue;
    }
    if (!res.overflow_point || !all_zero_offsets(sc)) continue;
    const sched::Time t = *res.overflow_point;
    const sched::Time demand = sched::demand_bound(ts, t);
    if (demand <= t) continue;  // defensive; cannot happen
    sink.error(sc.cpu->path,
               "processor demand analysis proves a deadline miss: "
               "demand " + std::to_string(demand) +
                   " quanta by absolute deadline " + std::to_string(t));
    sink.conclusive(StaticVerdict::NotSchedulable,
                    "processor '" + sc.cpu->path +
                        "' provably overflows under any policy: dbf(" +
                        std::to_string(t) + ") = " +
                        std::to_string(demand) + " > " + std::to_string(t) +
                        " quanta");
    StaticCertificate cert;
    cert.kind = "edf-overflow-witness";
    cert.processor = sc.cpu->path;
    cert.schedulable = false;
    cert.tasks = cert_rows(sc, false);
    cert.window_q = t;
    cert.demand_q = demand;
    sink.certificate(std::move(cert));
  }
}

// --- shared-resource view shared by AL015/AL016 ---------------------------

sched::LockProtocol to_lock_protocol(aadl::ConcurrencyProtocol p) {
  switch (p) {
    case aadl::ConcurrencyProtocol::PriorityInheritance:
      return sched::LockProtocol::PriorityInheritance;
    case aadl::ConcurrencyProtocol::PriorityCeiling:
      return sched::LockProtocol::PriorityCeiling;
    case aadl::ConcurrencyProtocol::None: break;
  }
  return sched::LockProtocol::None;
}

// --- AL015 ----------------------------------------------------------------

void blocking_rta(const Subject& subject, Sink& sink) {
  if (!model_is_pure(subject.instance)) return;
  const aadl::SharedResourceModel srm =
      aadl::extract_shared_resources(subject.instance);
  if (srm.resources.empty()) return;
  const std::int64_t q = subject.quantum_ns;

  for (const ScreenCpu& sc : subject.screen) {
    if (!sc.complete || !sc.protocol || !sc.priorities_ok) continue;
    if (!fixed_priority_protocol(*sc.protocol)) continue;
    if (!all_periodic_constrained(sc)) continue;

    std::map<const aadl::ComponentInstance*, std::size_t> index;
    for (std::size_t i = 0; i < sc.tasks.size(); ++i)
      index[sc.tasks[i].inst] = i;

    sched::ResourceModel rm;
    bool usable = true, any_access = false;
    for (const aadl::SharedResourceInfo& res : srm.resources) {
      bool on_cpu = false, off_cpu = false;
      for (const aadl::ResourceAccess& acc : res.accesses) {
        if (index.count(acc.thread))
          on_cpu = true;
        else
          off_cpu = true;
      }
      if (!on_cpu) continue;
      any_access = true;
      if (off_cpu) {
        sink.note(sc.cpu->path,
                  "resource '" + res.data->path + "' is shared across "
                  "processors; remote blocking is outside this analysis");
        usable = false;
        break;
      }
      if (res.protocol == aadl::ConcurrencyProtocol::None) {
        usable = false;  // AL016 reports the hazard
        break;
      }
      const std::size_t r = rm.resources.size();
      rm.resources.push_back(
          {res.data->path, to_lock_protocol(res.protocol)});
      for (const aadl::ResourceAccess& acc : res.accesses) {
        if (acc.section_ns < 0) {
          sink.note(sc.cpu->path,
                    "access to '" + res.data->path + "' by '" +
                        acc.thread->path +
                        "' has no Critical_Section_Time bound; "
                        "blocking-aware RTA abstains");
          usable = false;
          break;
        }
        rm.sections.push_back(
            {index.at(acc.thread), r, util::ceil_div(acc.section_ns, q)});
      }
      if (!usable) break;
    }
    if (!usable || !any_access) continue;

    const sched::TaskSet ts = to_taskset(sc);
    const auto blocking = sched::blocking_terms(ts, rm);
    if (!blocking) continue;  // unbounded (shared resource, no protocol)
    const auto rta = sched::response_time_analysis(
        ts, &*blocking, /*ties_interfere=*/true);
    if (rta.verdict != sched::Verdict::Schedulable) {
      sink.note(sc.cpu->path,
                "blocking-aware RTA is inconclusive (responses with "
                "blocking terms may exceed deadlines; exploration "
                "ignores locking and decides the agreement verdict)");
      continue;
    }
    sched::Time worst_b = 0;
    for (const sched::Time b : *blocking) worst_b = std::max(worst_b, b);
    std::ostringstream os;
    os << "blocking-aware RTA holds: every response time meets its "
          "deadline even with worst-case blocking (max B_i = " << worst_b
       << " quanta)";
    sink.note(sc.cpu->path, os.str());
    sink.processor_verdict(sc.cpu->path, true, os.str());
    StaticCertificate cert;
    cert.kind = "fp-response-bound";
    cert.processor = sc.cpu->path;
    cert.schedulable = true;
    cert.tasks = cert_rows(sc, false, &*blocking, &rta.response);
    sink.certificate(std::move(cert));
  }
}

// --- AL016 ----------------------------------------------------------------

void shared_access_hazard(const Subject& subject, Sink& sink) {
  const aadl::InstanceModel& m = subject.instance;
  const aadl::SharedResourceModel srm = extract_shared_resources(m);
  const std::int64_t q = subject.quantum_ns;

  for (const aadl::SharedResourceInfo& res : srm.resources) {
    std::set<const aadl::ComponentInstance*> users;
    std::set<const aadl::ComponentInstance*> cpus;
    for (const aadl::ResourceAccess& acc : res.accesses) {
      users.insert(acc.thread);
      auto it = m.bindings.find(acc.thread);
      if (it != m.bindings.end()) cpus.insert(it->second);
    }
    if (res.protocol_unknown)
      sink.warning(res.data->path,
                   "unrecognized Concurrency_Control_Protocol '" +
                       res.protocol_name + "' (treated as none)");
    if (users.size() >= 2 &&
        res.protocol == aadl::ConcurrencyProtocol::None)
      sink.warning(res.data->path,
                   "shared by " + std::to_string(users.size()) +
                       " threads without a concurrency-control protocol: "
                       "unprotected access permits unbounded priority "
                       "inversion");
    if (users.size() >= 2 && cpus.size() >= 2)
      sink.warning(res.data->path,
                   "shared across " + std::to_string(cpus.size()) +
                       " processors: remote blocking is not bounded by "
                       "any static analysis here");
    for (const aadl::ResourceAccess& acc : res.accesses) {
      if (acc.section_ns < 0) {
        if (res.protocol != aadl::ConcurrencyProtocol::None)
          sink.warning(acc.thread->path,
                       "access to '" + res.data->path +
                           "' has no Critical_Section_Time bound; "
                           "blocking-aware analysis cannot run");
        continue;
      }
      util::DiagnosticEngine scratch("<lint>");
      const auto tp = aadl::thread_properties(m, *acc.thread, scratch);
      if (tp && q > 0 &&
          util::ceil_div(acc.section_ns, q) >
              util::ceil_div(tp->compute_max_ns, q))
        sink.warning(acc.thread->path,
                     "Critical_Section_Time on '" + res.data->path +
                         "' exceeds the thread's worst-case execution "
                         "time: the lock would outlive the dispatch");
    }
  }
  for (const std::string& u : srm.unresolved)
    sink.warning("", u);
}

}  // namespace

// The catalogue cards of this file's checks; lint.cpp lists them in run
// order.

const Check kExactRta{
    {"AL013", "exact-rta",
     "exact response-time analysis for fixed-priority processors "
     "(conclusive both ways on pure constrained-deadline models)",
     Tier::Screening, "exact (within fragment)",
     "Joseph & Pandya response-time analysis is necessary and "
     "sufficient for preemptive fixed-priority scheduling of "
     "independent periodic tasks with constrained deadlines. Vouching "
     "charges equal-priority tasks as mutual interference (exploration "
     "enumerates every tie interleaving); refuting requires distinct "
     "priorities and synchronous release, where the failed busy period "
     "is a reachable schedule prefix of the explorer's all-WCET branch."},
    exact_rta};

const Check kEdfQpa{
    {"AL014", "edf-qpa",
     "EDF processor-demand analysis (QPA) — exact for constrained "
     "deadlines, covering deadline < period where AL009 abstains",
     Tier::Screening, "exact (within fragment)",
     "The processor demand criterion (dbf(t) <= t up to the standard "
     "bound) is necessary and sufficient for EDF feasibility of "
     "periodic constrained-deadline tasks on one processor, and EDF "
     "and LLF are both optimal there, so feasibility transfers to the "
     "explorer's policy. A demand overflow at a synchronous release is "
     "mandatory work that no policy can serve — a guaranteed miss."},
    edf_qpa};

const Check kBlockingRta{
    {"AL015", "blocking-rta",
     "response-time analysis with PCP/PIP blocking terms from shared "
     "data components (vouch-only)",
     Tier::Screening, "sufficient",
     "Adds worst-case blocking terms B_i (priority-ceiling: one longest "
     "lower-priority section with ceiling at or above the task; "
     "priority-inheritance: one section per lower-priority task) to the "
     "RTA recurrence. Exploration walks the lock-free model, and "
     "responses with blocking dominate responses without, so a "
     "schedulable-with-blocking processor is schedulable for the "
     "explorer too — the vouch is a strictly stronger claim than the "
     "agreement contract needs. Never refutes: a blocking-induced miss "
     "is invisible to exploration."},
    blocking_rta};

const Check kSharedAccessHazard{
    {"AL016", "shared-access-hazard",
     "shared data components need a concurrency-control protocol and "
     "bounded critical sections",
     Tier::Screening, "advisory",
     "Flags hazards the verdict machinery deliberately ignores "
     "(exploration walks the lock-free model): data components shared "
     "without a Concurrency_Control_Protocol (unbounded priority "
     "inversion), unparseable protocols, accesses without a "
     "Critical_Section_Time bound, sections longer than the thread's "
     "WCET, cross-processor sharing (unbounded remote blocking), and "
     "access connections that resolve to nothing."},
    shared_access_hazard};

}  // namespace aadlsched::lint
