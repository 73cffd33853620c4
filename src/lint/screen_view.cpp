#include "lint/screen_view.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <variant>

#include "util/numeric.hpp"

namespace aadlsched::lint {

namespace {

using aadl::ComponentInstance;
using aadl::DispatchProtocol;
using aadl::InstanceModel;
using aadl::SchedulingProtocol;

using I128 = __int128;

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Mirror of translate::Translator::rank(): stable sort ascending by key,
/// priorities group.size()+1 downwards, background floored to 1.
template <typename Key>
void rank(std::vector<ScreenTask>& tasks, Key key) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return key(tasks[a]) < key(tasks[b]);
                   });
  int prio = static_cast<int>(tasks.size()) + 1;
  for (std::size_t idx : order) tasks[idx].priority = prio--;
  for (ScreenTask& t : tasks)
    if (t.dispatch == DispatchProtocol::Background) t.priority = 1;
}

void assign_priorities(ScreenCpu& sc,
                       const std::vector<std::optional<int>>& declared) {
  if (!sc.protocol) return;
  switch (*sc.protocol) {
    case SchedulingProtocol::RateMonotonic:
      rank(sc.tasks, [](const ScreenTask& t) {
        return t.period_q > 0 ? t.period_q : std::int64_t{1} << 40;
      });
      break;
    case SchedulingProtocol::DeadlineMonotonic:
      rank(sc.tasks, [](const ScreenTask& t) {
        return t.deadline_q > 0 ? t.deadline_q : std::int64_t{1} << 40;
      });
      break;
    case SchedulingProtocol::HighestPriorityFirst:
      for (std::size_t i = 0; i < sc.tasks.size(); ++i) {
        ScreenTask& t = sc.tasks[i];
        const int base = declared[i].value_or(0);
        if (base == 0 && t.dispatch != DispatchProtocol::Background)
          sc.priorities_ok = false;
        // Shift by 2 so priorities stay above background (1) and idle.
        t.priority = base + 2;
      }
      break;
    case SchedulingProtocol::Edf:
    case SchedulingProtocol::Llf:
      for (ScreenTask& t : sc.tasks) t.priority = 0;  // dynamic
      break;
  }
}

}  // namespace

std::vector<ScreenCpu> extract_screen_cpus(const Subject& subject) {
  const InstanceModel& m = *subject.instance;
  const std::int64_t q = subject.topts.quantum_ns;
  std::vector<ScreenCpu> cpus;
  if (q <= 0) return cpus;
  for (const ComponentInstance* cpu : m.processors) {
    const auto threads = m.threads_on(cpu);
    if (threads.empty()) continue;
    ScreenCpu sc;
    sc.cpu = cpu;
    util::DiagnosticEngine scratch("<lint>");
    sc.protocol = aadl::scheduling_protocol(m, *cpu, scratch);
    std::vector<std::optional<int>> declared;
    for (const ComponentInstance* t : threads) {
      util::DiagnosticEngine tscratch("<lint>");
      const auto tp = aadl::thread_properties(m, *t, tscratch);
      if (!tp) {
        sc.complete = false;
        continue;
      }
      ScreenTask st;
      st.inst = t;
      st.path = t->path;
      st.dispatch = tp->dispatch;
      st.cmin_q = ceil_div(tp->compute_min_ns, q);
      st.cmax_q = ceil_div(tp->compute_max_ns, q);
      st.period_q = tp->period_ns / q;
      st.deadline_q = tp->deadline_ns / q;
      if (const auto* pv = aadl::find_property(m, *t, "dispatch_offset")) {
        if (const auto* iu = std::get_if<aadl::IntWithUnit>(&pv->data)) {
          util::DiagnosticEngine oscratch("<lint>");
          if (auto ns = aadl::time_to_ns(*iu, oscratch, {}))
            st.offset_q = std::clamp<std::int64_t>(
                *ns / q, 0, std::max<std::int64_t>(st.period_q, 0));
        }
      }
      declared.push_back(tp->priority);
      sc.tasks.push_back(std::move(st));
    }
    assign_priorities(sc, declared);
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
    if (t.period_q <= 0) continue;  // AL005 flags this
    if (den > kCap / t.period_q) return std::nullopt;
    num = num * t.period_q + static_cast<I128>(t.cmax_q) * den;
    den = den * t.period_q;
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
    if (t.period_q <= 0) continue;
    u += static_cast<double>(t.cmax_q) / static_cast<double>(t.period_q);
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
    if (t.period_q <= 0 || t.deadline_q != t.period_q) return false;
  }
  return !sc.tasks.empty();
}

bool all_periodic_constrained(const ScreenCpu& sc) {
  for (const ScreenTask& t : sc.tasks) {
    if (t.dispatch != DispatchProtocol::Periodic) return false;
    if (t.period_q <= 0 || t.deadline_q <= 0) return false;
    if (t.deadline_q > t.period_q) return false;
  }
  return !sc.tasks.empty();
}

bool all_zero_offsets(const ScreenCpu& sc) {
  return std::all_of(sc.tasks.begin(), sc.tasks.end(),
                     [](const ScreenTask& t) { return t.offset_q == 0; });
}

}  // namespace aadlsched::lint
