#include "sched/simulator.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace aadlsched::sched {

namespace {

struct JobState {
  Time remaining = 0;      // execution quanta left for the current job
  Time release = 0;        // release time of the current job
  Time abs_deadline = 0;   // absolute deadline (infinite for background)
  bool active = false;
};

constexpr Time kNoDeadline = std::numeric_limits<Time>::max();

}  // namespace

SimResult simulate(const TaskSet& ts, const SimOptions& opts) {
  SimResult result;
  const std::size_t n = ts.tasks.size();
  result.worst_response.assign(n, 0);
  for (const Task& t : ts.tasks)
    if (t.kind != DispatchKind::Background && t.period < 1)
      throw std::invalid_argument("simulate: task '" + t.name +
                                  "' has a period below one quantum");

  Time horizon = opts.horizon;
  if (horizon == 0) {
    const Time h = ts.hyperperiod();
    Time dmax = 0;
    for (const Task& t : ts.tasks) dmax = std::max(dmax, t.deadline);
    horizon = (h > 0 ? h : 1) + dmax;
  }

  std::vector<JobState> jobs(n);

  for (Time now = 0; now < horizon; ++now) {
    // Deadline check first (before releases can overwrite a late job): a
    // job whose deadline is <= now with work remaining has missed.
    for (std::size_t i = 0; i < n; ++i) {
      if (!jobs[i].active || jobs[i].remaining == 0) continue;
      if (jobs[i].abs_deadline != kNoDeadline && jobs[i].abs_deadline <= now) {
        result.schedulable = false;
        result.first_miss = DeadlineMiss{i, jobs[i].release,
                                         jobs[i].abs_deadline};
        result.simulated = now;
        return result;
      }
    }

    // Release jobs. Background tasks release once at t = 0; everything else
    // at every multiple of its period (sporadic at max rate = worst case).
    for (std::size_t i = 0; i < n; ++i) {
      const Task& t = ts.tasks[i];
      const bool releases = t.kind == DispatchKind::Background
                                ? now == 0
                                : now % t.period == 0;
      if (!releases) continue;
      jobs[i].remaining = t.wcet;
      jobs[i].release = now;
      jobs[i].abs_deadline = t.kind == DispatchKind::Background
                                 ? kNoDeadline
                                 : now + t.deadline;
      jobs[i].active = t.wcet > 0;
    }

    // Pick the job to run this quantum.
    int chosen = -1;
    auto better = [&](std::size_t a, std::size_t b) {
      switch (opts.policy) {
        case SchedulingPolicy::FixedPriority: {
          const int pa = ts.tasks[a].priority, pb = ts.tasks[b].priority;
          if (pa != pb) return pa > pb;
          return a < b;
        }
        case SchedulingPolicy::Edf: {
          if (jobs[a].abs_deadline != jobs[b].abs_deadline)
            return jobs[a].abs_deadline < jobs[b].abs_deadline;
          return a < b;
        }
        case SchedulingPolicy::Llf: {
          const Time la = jobs[a].abs_deadline == kNoDeadline
                              ? kNoDeadline
                              : jobs[a].abs_deadline - now - jobs[a].remaining;
          const Time lb = jobs[b].abs_deadline == kNoDeadline
                              ? kNoDeadline
                              : jobs[b].abs_deadline - now - jobs[b].remaining;
          if (la != lb) return la < lb;
          return a < b;
        }
      }
      return a < b;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (!jobs[i].active || jobs[i].remaining == 0) continue;
      if (chosen < 0 || better(i, static_cast<std::size_t>(chosen)))
        chosen = static_cast<int>(i);
    }

    if (opts.record_timeline) result.timeline.push_back(chosen);

    if (chosen >= 0) {
      JobState& j = jobs[static_cast<std::size_t>(chosen)];
      if (--j.remaining == 0) {
        const Time resp = now + 1 - j.release;
        auto& wr = result.worst_response[static_cast<std::size_t>(chosen)];
        wr = std::max(wr, resp);
        j.active = ts.tasks[static_cast<std::size_t>(chosen)].kind ==
                           DispatchKind::Background
                       ? false
                       : j.active;
      }
    }
  }

  // Final deadline check for jobs finishing right at the horizon.
  for (std::size_t i = 0; i < n; ++i) {
    if (jobs[i].active && jobs[i].remaining > 0 &&
        jobs[i].abs_deadline != kNoDeadline &&
        jobs[i].abs_deadline <= horizon) {
      result.schedulable = false;
      result.first_miss =
          DeadlineMiss{i, jobs[i].release, jobs[i].abs_deadline};
      break;
    }
  }
  result.simulated = horizon;
  return result;
}

std::string render_gantt(const TaskSet& ts, const SimResult& result,
                         Time max_quanta) {
  std::ostringstream os;
  const Time len = std::min<Time>(
      static_cast<Time>(result.timeline.size()), max_quanta);
  std::size_t width = 4;
  for (const Task& t : ts.tasks) width = std::max(width, t.name.size() + 1);
  for (std::size_t i = 0; i < ts.tasks.size(); ++i) {
    os << util::pad_right(ts.tasks[i].name, width) << '|';
    for (Time q = 0; q < len; ++q)
      os << (result.timeline[static_cast<std::size_t>(q)] ==
                     static_cast<int>(i)
                 ? '#'
                 : '.');
    os << "|\n";
  }
  return os.str();
}

}  // namespace aadlsched::sched
