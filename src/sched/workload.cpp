#include "sched/workload.hpp"

#include <algorithm>
#include <cmath>

namespace aadlsched::sched {

std::vector<double> uunifast(std::size_t n, double total,
                             util::Xoshiro256& rng) {
  std::vector<double> out(n, 0.0);
  double sum = total;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double next =
        sum * std::pow(rng.uniform(),
                       1.0 / static_cast<double>(n - 1 - i));
    out[i] = sum - next;
    sum = next;
  }
  if (n > 0) out[n - 1] = sum;
  return out;
}

std::optional<std::string> validate_workload_spec(const WorkloadSpec& spec) {
  if (spec.task_count < 1)
    return "workload spec: task_count must be >= 1";
  if (spec.periods.empty())
    return "workload spec: period set must be non-empty";
  for (const Time p : spec.periods)
    if (p < 1)
      return "workload spec: every candidate period must be >= 1 quantum "
             "(got " +
             std::to_string(p) + ")";
  if (!(spec.total_utilization > 0.0) ||
      !std::isfinite(spec.total_utilization))
    return "workload spec: total_utilization must be finite and > 0";
  if (!(spec.deadline_fraction >= 0.0 && spec.deadline_fraction <= 1.0))
    return "workload spec: deadline_fraction must be in [0, 1]";
  return std::nullopt;
}

std::optional<TaskSet> try_generate_workload(const WorkloadSpec& spec,
                                             std::uint64_t seed,
                                             std::string& error) {
  if (auto bad = validate_workload_spec(spec)) {
    error = std::move(*bad);
    return std::nullopt;
  }
  util::Xoshiro256 rng(seed);
  TaskSet ts;
  ts.requested_utilization = spec.total_utilization;
  const std::vector<double> us =
      uunifast(spec.task_count, spec.total_utilization, rng);
  for (std::size_t i = 0; i < spec.task_count; ++i) {
    Task t;
    t.name = "tau" + std::to_string(i + 1);
    t.period = spec.periods[static_cast<std::size_t>(
        rng.uniform_int(0, spec.periods.size() - 1))];
    Time c = static_cast<Time>(
        std::llround(us[i] * static_cast<double>(t.period)));
    c = std::max<Time>(c, 1);
    c = std::min(c, t.period);
    t.wcet = c;
    t.bcet = c;
    const double span = static_cast<double>(t.period - c);
    t.deadline =
        c + static_cast<Time>(std::llround(spec.deadline_fraction * span));
    t.kind = DispatchKind::Periodic;
    ts.tasks.push_back(std::move(t));
  }
  return ts;
}

TaskSet generate_workload(const WorkloadSpec& spec, std::uint64_t seed) {
  std::string error;
  auto ts = try_generate_workload(spec, seed, error);
  return ts ? std::move(*ts) : TaskSet{};
}

}  // namespace aadlsched::sched
