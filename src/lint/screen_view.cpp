#include "lint/screen_view.hpp"

#include <algorithm>
#include <sstream>

#include "util/numeric.hpp"

namespace aadlsched::lint {

namespace {

using aadl::ComponentInstance;
using aadl::DispatchProtocol;
using aadl::InstanceModel;

using I128 = __int128;

}  // namespace

std::vector<ScreenCpu> extract_screen_cpus(const InstanceModel& m,
                                           std::int64_t quantum_ns) {
  std::vector<ScreenCpu> cpus;
  if (quantum_ns <= 0) return cpus;
  util::DiagnosticEngine scratch("<lint>");
  for (const ComponentInstance* cpu : m.processors) {
    const auto threads = m.threads_on(cpu);
    if (threads.empty()) continue;
    ScreenCpu sc;
    sc.cpu = cpu;
    sc.protocol = aadl::scheduling_protocol(m, *cpu, scratch);
    std::vector<translate::PriorityInput> inputs;
    for (const ComponentInstance* t : threads) {
      const auto tp = aadl::thread_properties(m, *t, scratch);
      if (!tp) {
        sc.complete = false;
        continue;
      }
      ScreenTask st;
      st.inst = t;
      st.dispatch = tp->dispatch;
      st.quanta = translate::quantize(
          *tp, translate::dispatch_offset_ns(m, *t, scratch).value_or(0),
          quantum_ns);
      inputs.push_back({tp->dispatch, st.quanta.period, st.quanta.deadline,
                        tp->priority.value_or(0)});
      sc.tasks.push_back(std::move(st));
    }
    if (sc.protocol) {
      const translate::PriorityAssignment pa =
          translate::assign_priorities(*sc.protocol, inputs);
      for (std::size_t i = 0; i < sc.tasks.size(); ++i)
        sc.tasks[i].priority = pa.priorities[i];
      sc.priorities_ok = pa.missing_priority.empty();
    }
    cpus.push_back(std::move(sc));
  }
  return cpus;
}

std::optional<int> utilization_vs_one(const std::vector<ScreenTask>& tasks,
                                      bool periodic_only) {
  // Accumulate num/den with gcd reduction; bail out near the 128-bit edge.
  constexpr I128 kCap = static_cast<I128>(1) << 100;
  I128 num = 0, den = 1;
  for (const ScreenTask& t : tasks) {
    if (periodic_only && t.dispatch != DispatchProtocol::Periodic) continue;
    if (t.dispatch == DispatchProtocol::Aperiodic ||
        t.dispatch == DispatchProtocol::Background)
      continue;  // no utilization bound
    if (t.quanta.period <= 0) continue;  // AL005 flags this
    if (den > kCap / t.quanta.period) return std::nullopt;
    num = num * t.quanta.period + static_cast<I128>(t.quanta.cmax) * den;
    den = den * t.quanta.period;
    const I128 g = util::gcd128(num, den);
    if (g > 1) {
      num /= g;
      den /= g;
    }
    if (num > kCap) return std::nullopt;
  }
  if (num > den) return 1;
  if (num < den) return -1;
  return 0;
}

double utilization_double(const std::vector<ScreenTask>& tasks,
                          bool periodic_only) {
  double u = 0;
  for (const ScreenTask& t : tasks) {
    if (periodic_only && t.dispatch != DispatchProtocol::Periodic) continue;
    if (t.dispatch == DispatchProtocol::Aperiodic ||
        t.dispatch == DispatchProtocol::Background)
      continue;
    if (t.quanta.period <= 0) continue;
    u += static_cast<double>(t.quanta.cmax) /
         static_cast<double>(t.quanta.period);
  }
  return u;
}

std::string utilization_string(const std::vector<ScreenTask>& tasks,
                               bool periodic_only) {
  std::ostringstream os;
  os.precision(4);
  os << utilization_double(tasks, periodic_only);
  return os.str();
}

bool model_is_pure(const InstanceModel& m) {
  for (const aadl::SemanticConnection& sc : m.connections) {
    if (sc.kind == aadl::FeatureKind::EventPort ||
        sc.kind == aadl::FeatureKind::EventDataPort)
      return false;
    if (sc.bus) return false;
  }
  return true;
}

bool all_periodic_implicit(const ScreenCpu& sc) {
  for (const ScreenTask& t : sc.tasks) {
    if (t.dispatch != DispatchProtocol::Periodic) return false;
    if (t.quanta.period <= 0 || t.quanta.deadline != t.quanta.period)
      return false;
  }
  return !sc.tasks.empty();
}

bool all_periodic_constrained(const ScreenCpu& sc) {
  for (const ScreenTask& t : sc.tasks) {
    if (t.dispatch != DispatchProtocol::Periodic) return false;
    if (t.quanta.period <= 0 || t.quanta.deadline <= 0) return false;
    if (t.quanta.deadline > t.quanta.period) return false;
  }
  return !sc.tasks.empty();
}

bool all_zero_offsets(const ScreenCpu& sc) {
  return std::all_of(sc.tasks.begin(), sc.tasks.end(),
                     [](const ScreenTask& t) { return t.quanta.offset == 0; });
}

}  // namespace aadlsched::lint
