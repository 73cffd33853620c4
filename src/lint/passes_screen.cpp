// Fast verdict screening (AL007..AL009): per-processor analytical tests
// over the quantized task view, reusing the bounds of src/sched. The
// contract with exploration (DESIGN.md §9):
//
//   * AL007 NotSchedulable claims are *guaranteed counterexamples*: the
//     overload sum ranges over periodic threads only (which dispatch
//     unconditionally) at their quantized WCET (the all-cmax execution is
//     always a reachable choice, because `done` carries priority 0).
//   * AL008/AL009 Schedulable claims are per-processor and only offered
//     when the classical abstraction is *exact*: all threads periodic,
//     implicit deadlines after quantization, and a model with no event
//     connections and no bus bindings (those introduce queues/generators/
//     cross-processor coupling that the bounds do not see). The lint driver
//     additionally requires translation success and no latency observers
//     before promoting them to a whole-model verdict.
//
// All conclusive arithmetic is exact (128-bit integer over the quantized
// values the explorer itself uses); floating point only feeds warnings and
// note-level reporting. Every claim ships a StaticCertificate so an
// independent checker can replay the bound (DESIGN.md §14).
#include <sstream>
#include <string>
#include <vector>

#include "lint/passes.hpp"
#include "lint/screen_view.hpp"
#include "sched/analysis.hpp"

namespace aadlsched::lint {

namespace {

using aadl::DispatchProtocol;
using aadl::SchedulingProtocol;

using I128 = __int128;

// --- AL007 ----------------------------------------------------------------

class UtilizationOverloadPass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL007", "utilization-overload",
        "per-processor utilization of periodic threads > 1 is a guaranteed "
        "deadline miss",
        Tier::Screening, "exact (refute-only)",
        "Periodic threads dispatch unconditionally and the all-WCET "
        "execution is always a reachable branch, so demand above capacity "
        "over the hyperperiod forces a miss that exploration would also "
        "find. The sum is evaluated in exact 128-bit arithmetic over the "
        "same quantized parameters the explorer uses."};
    return kInfo;
  }
  void run(const Subject& subject, Sink& sink) const override {
    for (const ScreenCpu& sc : subject.screen) {
      const auto periodic_sign = utilization_vs_one(sc.tasks, true);
      if (periodic_sign && *periodic_sign > 0) {
        const std::string u = utilization_string(sc.tasks, true);
        sink.error(sc.cpu->path,
                   "periodic utilization " + u +
                       " exceeds 1: overload is certain, some deadline "
                       "must be missed");
        sink.conclusive(StaticVerdict::NotSchedulable,
                        "processor '" + sc.cpu->path +
                            "' is overloaded by periodic threads alone "
                            "(U = " + u + " > 1)");
        StaticCertificate cert;
        cert.kind = "utilization-overload";
        cert.processor = sc.cpu->path;
        cert.schedulable = false;
        cert.tasks = cert_rows(sc, true);
        sink.certificate(std::move(cert));
        continue;
      }
      // Sporadic threads at their minimum separation may overstate real
      // arrival rates, so the combined overload is only advisory.
      const double total = utilization_double(sc.tasks, false);
      if ((!periodic_sign || *periodic_sign <= 0) && total > 1.0 + 1e-9)
        sink.warning(sc.cpu->path,
                     "utilization including sporadic threads at maximum "
                     "rate is " + utilization_string(sc.tasks, false) +
                         " > 1: unschedulable under sustained arrivals");
    }
  }
};

// --- AL008 ----------------------------------------------------------------

class RmUtilizationBoundPass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL008", "rm-utilization-bound",
        "hyperbolic/Liu-Layland bound for rate-/deadline-monotonic "
        "processors (sufficient)",
        Tier::Screening, "sufficient",
        "Bini's hyperbolic bound prod(U_i + 1) <= 2 is sufficient for "
        "rate-monotonic scheduling of independent periodic tasks with "
        "implicit deadlines; it is only offered when the task abstraction "
        "is exact (pure model), where a schedulable task set means "
        "exploration finds no deadlock."};
    return kInfo;
  }
  void run(const Subject& subject, Sink& sink) const override {
    if (!model_is_pure(subject.instance)) return;
    for (const ScreenCpu& sc : subject.screen) {
      if (!sc.complete || !sc.protocol) continue;
      if (*sc.protocol != SchedulingProtocol::RateMonotonic &&
          *sc.protocol != SchedulingProtocol::DeadlineMonotonic)
        continue;
      if (!all_periodic_implicit(sc)) continue;
      bool fits = true;
      for (const ScreenTask& t : sc.tasks)
        if (t.quanta.cmax > t.quanta.period) fits = false;
      if (!fits) continue;

      // Hyperbolic bound, exact: prod(c_i + p_i) <= 2 * prod(p_i).
      constexpr I128 kCap = static_cast<I128>(1) << 110;
      I128 lhs = 1, rhs = 2;
      bool exact = true;
      for (const ScreenTask& t : sc.tasks) {
        const I128 a = t.quanta.cmax + t.quanta.period, b = t.quanta.period;
        if (lhs > kCap / a || rhs > kCap / b) {
          exact = false;
          break;
        }
        lhs *= a;
        rhs *= b;
      }
      if (!exact || lhs > rhs) continue;

      const double u = utilization_double(sc.tasks, false);
      const double ll = sched::liu_layland_bound(sc.tasks.size());
      std::ostringstream os;
      os.precision(4);
      os << "U = " << u << " satisfies the hyperbolic bound (LL bound for n="
         << sc.tasks.size() << " is " << ll << ")";
      sink.note(sc.cpu->path, "rate-monotonic bound holds: " + os.str());
      sink.processor_verdict(sc.cpu->path, true, os.str());
      StaticCertificate cert;
      cert.kind = "hyperbolic-bound";
      cert.processor = sc.cpu->path;
      cert.schedulable = true;
      cert.tasks = cert_rows(sc, false);
      sink.certificate(std::move(cert));
    }
  }
};

// --- AL009 ----------------------------------------------------------------

class EdfUtilizationPass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL009", "edf-utilization",
        "U <= 1 is exact for EDF/LLF with periodic implicit-deadline tasks",
        Tier::Screening, "sufficient",
        "U <= 1 is necessary and sufficient for EDF with independent "
        "periodic implicit-deadline tasks on one processor; LLF shares the "
        "optimality argument. Evaluated as an exact fraction; only offered "
        "on pure models where the task abstraction is exact."};
    return kInfo;
  }
  void run(const Subject& subject, Sink& sink) const override {
    if (!model_is_pure(subject.instance)) return;
    for (const ScreenCpu& sc : subject.screen) {
      if (!sc.complete || !sc.protocol) continue;
      if (*sc.protocol != SchedulingProtocol::Edf &&
          *sc.protocol != SchedulingProtocol::Llf)
        continue;
      if (!all_periodic_implicit(sc)) continue;
      const auto sign = utilization_vs_one(sc.tasks, false);
      if (!sign || *sign > 0) continue;
      const std::string u = utilization_string(sc.tasks, false);
      sink.note(sc.cpu->path,
                "EDF utilization test holds exactly: U = " + u + " <= 1");
      sink.processor_verdict(sc.cpu->path, true,
                             "EDF utilization U = " + u + " <= 1 (exact)");
      StaticCertificate cert;
      cert.kind = "edf-utilization";
      cert.processor = sc.cpu->path;
      cert.schedulable = true;
      cert.tasks = cert_rows(sc, false);
      sink.certificate(std::move(cert));
    }
  }
};

}  // namespace

void register_screening_passes(Registry& reg) {
  reg.add(std::make_unique<UtilizationOverloadPass>());
  reg.add(std::make_unique<RmUtilizationBoundPass>());
  reg.add(std::make_unique<EdfUtilizationPass>());
}

}  // namespace aadlsched::lint
