#include "sched/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/numeric.hpp"

namespace aadlsched::sched {

namespace {

/// Sign of (sum of wcet/period) - 1, exact over the integer periods while
/// the fraction stays within util::ExactUtilization's cap, else from the
/// double sum.
int utilization_vs_one(const TaskSet& ts) {
  util::ExactUtilization exact;
  for (const Task& t : ts.tasks) exact.add(t.wcet, t.period);
  if (const auto sign = exact.vs_one()) return *sign;
  const double u = ts.utilization();
  return (u > 1.0) - (u < 1.0);
}

}  // namespace

double liu_layland_bound(std::size_t n) {
  if (n == 0) return 1.0;
  const double nn = static_cast<double>(n);
  return nn * (std::pow(2.0, 1.0 / nn) - 1.0);
}

Verdict rm_utilization_test(const TaskSet& ts) {
  if (!ts.implicit_deadlines()) return Verdict::Unknown;
  return ts.utilization() <= liu_layland_bound(ts.tasks.size())
             ? Verdict::Schedulable
             : Verdict::Unknown;
}

Verdict hyperbolic_bound_test(const TaskSet& ts) {
  if (!ts.implicit_deadlines()) return Verdict::Unknown;
  double prod = 1.0;
  for (const Task& t : ts.tasks) prod *= t.utilization() + 1.0;
  return prod <= 2.0 ? Verdict::Schedulable : Verdict::Unknown;
}

Verdict edf_utilization_test(const TaskSet& ts) {
  if (!ts.implicit_deadlines()) return Verdict::Unknown;
  return utilization_vs_one(ts) <= 0 ? Verdict::Schedulable
                                     : Verdict::Unschedulable;
}

RtaResult response_time_analysis(const TaskSet& ts,
                                 const std::vector<Time>* blocking,
                                 bool ties_interfere) {
  RtaResult result;
  result.response.assign(ts.tasks.size(), -1);
  result.verdict = Verdict::Schedulable;

  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    const Task& ti = ts.tasks[i];
    const Time bi = blocking && i < blocking->size() ? (*blocking)[i] : 0;
    Time r = ti.wcet + bi;
    bool converged = false;
    // Fixed-point iteration; diverges past the deadline => miss.
    for (int iter = 0; iter < 1'000'000; ++iter) {
      Time next = ti.wcet + bi;
      for (std::size_t j = 0; j < ts.tasks.size(); ++j) {
        if (j == i) continue;
        const Task& tj = ts.tasks[j];
        // Higher priority interferes; ties broken by index for determinism
        // (matches the distinct-priority assignment helpers) unless the
        // caller asked for the pessimistic both-ways reading.
        const bool higher =
            tj.priority > ti.priority ||
            (tj.priority == ti.priority && (ties_interfere || j < i));
        if (!higher) continue;
        next += util::ceil_div(r, tj.period) * tj.wcet;
      }
      if (next == r) {
        converged = true;
        break;
      }
      r = next;
      if (r > ti.deadline) break;  // already past the deadline
    }
    result.response[i] = converged ? r : -1;
    if (!converged || r > ti.deadline) result.verdict = Verdict::Unschedulable;
  }
  return result;
}

Time demand_bound(const TaskSet& ts, Time t) {
  Time demand = 0;
  for (const Task& task : ts.tasks) {
    if (t < task.deadline) continue;
    demand += ((t - task.deadline) / task.period + 1) * task.wcet;
  }
  return demand;
}

namespace {

/// Upper bound on the interval lengths that must be checked by processor
/// demand analysis (min of hyperperiod-based and utilization-based bounds).
Time demand_check_bound(const TaskSet& ts) {
  const double u = ts.utilization();
  Time max_deadline = 0;
  for (const Task& t : ts.tasks)
    max_deadline = std::max(max_deadline, t.deadline);
  Time bound = ts.hyperperiod();
  if (bound < 0) bound = std::numeric_limits<Time>::max();
  bound = std::max(bound, max_deadline);
  // The double test guards the division: an exact U just below 1 can still
  // round to 1.0, and the hyperperiod bound holds on its own.
  if (utilization_vs_one(ts) < 0 && u < 1.0) {
    // L_a = max(D_i, sum (T_i - D_i) U_i / (1 - U)).
    double la = 0.0;
    for (const Task& t : ts.tasks)
      la += static_cast<double>(t.period - t.deadline) * t.utilization();
    la /= (1.0 - u);
    const Time la_t =
        static_cast<Time>(std::ceil(std::max(
            la, static_cast<double>(max_deadline))));
    bound = std::min(bound, la_t);
  }
  return bound;
}

/// Smallest failing absolute deadline at or below a known-failing point.
/// Any t with dbf(t) > t is preceded (weakly) by a failing deadline, so the
/// scan is exhaustive; used to make QPA's witness canonical.
Time first_overflow_at_or_below(const TaskSet& ts, Time limit) {
  Time best = limit;
  for (const Task& task : ts.tasks) {
    for (Time d = task.deadline; d <= best; d += task.period) {
      if (demand_bound(ts, d) > d) {
        best = d;
        break;
      }
    }
  }
  return best;
}

}  // namespace

Time edf_check_bound(const TaskSet& ts) { return demand_check_bound(ts); }

EdfResult edf_demand_analysis(const TaskSet& ts) {
  EdfResult result;
  if (utilization_vs_one(ts) > 0) {
    result.verdict = Verdict::Unschedulable;
    return result;
  }
  const Time bound = demand_check_bound(ts);
  // Check every absolute deadline up to the bound. Keep scanning after a
  // hit so the reported point is the *globally* earliest overflow — each
  // task's deadline chain is ascending, but chains interleave, and the
  // certificate machinery pins witnesses to the first failing instant.
  bool found = false;
  Time first = bound;
  for (const Task& task : ts.tasks) {
    for (Time d = task.deadline; d <= first; d += task.period) {
      if (demand_bound(ts, d) > d) {
        found = true;
        first = d;
        break;
      }
    }
  }
  if (found) {
    result.verdict = Verdict::Unschedulable;
    result.overflow_point = first;
  } else {
    result.verdict = Verdict::Schedulable;
  }
  return result;
}

EdfResult edf_qpa(const TaskSet& ts) {
  EdfResult result;
  if (ts.tasks.empty()) {
    result.verdict = Verdict::Schedulable;
    return result;
  }
  if (utilization_vs_one(ts) > 0) {
    result.verdict = Verdict::Unschedulable;
    return result;
  }
  Time dmin = std::numeric_limits<Time>::max();
  for (const Task& t : ts.tasks) dmin = std::min(dmin, t.deadline);

  const Time bound = demand_check_bound(ts);
  // Largest absolute deadline strictly below the bound.
  const auto last_deadline_before = [&](Time t) {
    Time best = 0;
    for (const Task& task : ts.tasks) {
      if (task.deadline >= t) continue;
      const Time k = (t - 1 - task.deadline) / task.period;
      best = std::max(best, task.deadline + k * task.period);
    }
    return best;
  };

  Time t = last_deadline_before(bound + 1);
  while (t >= dmin && t > 0) {
    const Time h = demand_bound(ts, t);
    if (h > t) {
      result.verdict = Verdict::Unschedulable;
      // QPA lands on *a* failing point while descending; normalize to the
      // first overflow so the witness matches edf_demand_analysis.
      result.overflow_point = first_overflow_at_or_below(ts, t);
      return result;
    }
    t = h < t ? h : last_deadline_before(t);
    if (t < dmin) break;
  }
  result.verdict = Verdict::Schedulable;
  return result;
}

}  // namespace aadlsched::sched
