// Synthetic workload generation for the benches, the property tests and
// the aadlsched-exp experiment driver.
//
// The paper evaluates on a single worked example (the cruise-control
// system); the schedulable-fraction curves in EXPERIMENTS.md need
// parameterized random task sets. We use the standard recipe: UUniFast for
// unbiased utilization splits, log-uniform periods from a small divisor-
// friendly set (keeps hyperperiods and therefore both the simulator horizon
// and the ACSR state space bounded), deadlines uniform in [C, T].
//
// Utilization realism: quantizing C = llround(u*T) and clamping C >= 1 shift
// the realized sum(C/T) away from the requested total — UUniFast shares can
// even round to 0 and get bumped to C = 1. The generator therefore records
// the requested total on the TaskSet (TaskSet::requested_utilization) so
// consumers can bin acceptance curves by the *realized* utilization
// (TaskSet::utilization()) instead of silently attributing a drifted task
// set to the requested grid point.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "sched/task.hpp"
#include "util/rng.hpp"

namespace aadlsched::sched {

/// Default candidate periods, in quanta, chosen so hyperperiods stay small
/// enough for exhaustive exploration. A static array rather than a braced
/// list: g++ 12 reports the list's backing array as dangling
/// (-Wdangling-pointer) wherever a WorkloadSpec is built inline.
inline constexpr Time kDefaultPeriods[] = {4, 5, 8, 10, 16, 20};

struct WorkloadSpec {
  std::size_t task_count = 3;
  double total_utilization = 0.7;
  /// Candidate periods, in quanta.
  std::vector<Time> periods{std::begin(kDefaultPeriods),
                            std::end(kDefaultPeriods)};
  /// D = C + fraction * (T - C); 1.0 = implicit deadlines. Every task gets
  /// wcet >= 1.
  double deadline_fraction = 1.0;
};

/// UUniFast: split `total` into `n` unbiased utilization shares.
std::vector<double> uunifast(std::size_t n, double total,
                             util::Xoshiro256& rng);

/// Structural validation of a WorkloadSpec: task_count >= 1, a non-empty
/// period set with every period >= 1, total_utilization > 0 (and finite),
/// deadline_fraction in [0, 1]. Returns a diagnostic on the first
/// violation, nullopt when the spec is generable. An empty period set used
/// to underflow `periods.size() - 1` and index out of bounds — validate
/// before generating.
std::optional<std::string> validate_workload_spec(const WorkloadSpec& spec);

/// Validating generator: nullopt + a diagnostic in `error` on an invalid
/// spec, otherwise the task set. Deterministic in `seed`.
std::optional<TaskSet> try_generate_workload(const WorkloadSpec& spec,
                                             std::uint64_t seed,
                                             std::string& error);

/// Generate a periodic task set from the spec. Deterministic in `seed`.
/// An invalid spec yields an *empty* task set (never UB); callers that
/// want the diagnostic use try_generate_workload.
TaskSet generate_workload(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace aadlsched::sched
