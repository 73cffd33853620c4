#include "oracle.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sched/analysis.hpp"
#include "sched/workload.hpp"

namespace perfbench {

namespace sched = aadlsched::sched;

namespace {

// Thread order of models/cruise_control.aadl: DriverModeLogic,
// ButtonPanel, RefSpeed, InstrumentPanel (HCI processor), Cruise1,
// Cruise2 (CCL processor).
constexpr std::array<int, CruiseVariants::kThreads> kPeriodMs = {100, 50, 50,
                                                                100, 50, 100};
constexpr std::array<int, CruiseVariants::kThreads> kLowerMs = {10, 10, 10,
                                                               10, 10, 20};
constexpr std::array<int, CruiseVariants::kThreads> kShippedUpperMs = {
    20, 10, 10, 20, 20, 20};
constexpr std::array<int, CruiseVariants::kThreads> kCpu = {0, 0, 0, 0, 1, 1};

sched::Time ceil_div(sched::Time a, sched::Time b) { return (a + b - 1) / b; }

/// Exact EDF test for synchronous periodic tasks with constrained deadlines,
/// in integers: total demand over a hyperperiod at most the hyperperiod,
/// and dbf(t) <= t at every absolute deadline up to hyperperiod + max D.
/// sched::edf_demand_analysis is not used: it first compares a
/// floating-point utilization sum against 1.0 and so calls some sets of
/// utilization exactly 1 unschedulable (C = 1 with T = 20, 10, 4, 8, 20, 8,
/// 5, 10, summed in that order, gives 1.0000000000000002).
bool edf_schedulable(const sched::TaskSet& ts) {
  const sched::Time h = ts.hyperperiod();
  if (h <= 0) throw std::runtime_error("fleet oracle: no hyperperiod");
  sched::Time demand = 0, dmax = 0;
  for (const sched::Task& t : ts.tasks) {
    demand += t.wcet * (h / t.period);
    dmax = std::max(dmax, t.deadline);
  }
  if (demand > h) return false;
  const auto dbf = [&](sched::Time at) {
    sched::Time sum = 0;
    for (const sched::Task& t : ts.tasks)
      if (at >= t.deadline) sum += ((at - t.deadline) / t.period + 1) * t.wcet;
    return sum;
  };
  for (const sched::Task& t : ts.tasks)
    for (sched::Time d = t.deadline; d <= h + dmax; d += t.period)
      if (dbf(d) > d) return false;
  return true;
}

}  // namespace

std::string read_model(const std::string& name) {
  const std::string path = std::string(PERFBENCH_MODELS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

CruiseVariants::CruiseVariants(std::string text) {
  const std::string key = "Compute_Execution_Time => ";
  std::size_t from = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    const std::size_t at = text.find(key, from);
    const std::size_t dots = text.find(" ms .. ", at);
    const std::size_t end = text.find(" ms;", dots);
    if (at == std::string::npos || dots == std::string::npos ||
        end == std::string::npos)
      throw std::runtime_error("cruise model: execution time " +
                               std::to_string(i) + " not found");
    const int lo = std::stoi(text.substr(at + key.size()));
    const int hi = std::stoi(text.substr(dots + 7));
    if (lo != kLowerMs[i] || hi != kShippedUpperMs[i])
      throw std::runtime_error("cruise model: unexpected execution time " +
                               std::to_string(i));
    pieces_.push_back(text.substr(from, dots + 7 - from));
    from = end;
  }
  pieces_.push_back(text.substr(from));
}

std::string CruiseVariants::render(const Bounds& hi) const {
  std::string out = pieces_[0];
  for (std::size_t i = 0; i < kThreads; ++i) {
    out += std::to_string(hi[i]);
    out += pieces_[i + 1];
  }
  return out;
}

CruiseVariants::Bounds CruiseVariants::shipped() { return kShippedUpperMs; }

int CruiseVariants::lower(std::size_t i) { return kLowerMs[i]; }

bool CruiseVariants::rta_schedulable(const Bounds& hi, int quantum_ms) {
  for (int cpu = 0; cpu < 2; ++cpu) {
    sched::TaskSet ts;
    for (std::size_t i = 0; i < kThreads; ++i) {
      if (kCpu[i] != cpu) continue;
      sched::Task t;
      t.wcet = ceil_div(hi[i], quantum_ms);
      t.period = kPeriodMs[i] / quantum_ms;
      t.deadline = t.period;
      t.priority = -kPeriodMs[i];  // rate monotonic; equal periods tie
      ts.tasks.push_back(t);
    }
    if (sched::response_time_analysis(ts, nullptr, /*ties_interfere=*/true)
            .verdict != sched::Verdict::Schedulable)
      return false;
  }
  return true;
}

aadlsched::exp::ExperimentSpec fleet_spec(std::uint64_t seed_begin) {
  aadlsched::exp::ExperimentSpec spec;
  spec.name = "perfbench-fleet";
  spec.policies = {"rm", "dm", "edf"};
  spec.utilizations = {0.5, 0.7, 0.9, 1.1};
  spec.task_counts = {3, 5, 8};
  spec.deadline_fractions = {1.0, 0.8};
  spec.quantum_ms = {1};
  spec.engines = {"enumerative"};
  spec.processors = {1};
  spec.seed_begin = seed_begin;
  spec.seed_count = 10;
  spec.run_lint = true;
  spec.workers = 2;
  return spec;
}

std::optional<bool> fleet_schedulable(const aadlsched::exp::ExperimentSpec& spec,
                                      const aadlsched::exp::Cell& cell,
                                      std::uint64_t seed) {
  sched::WorkloadSpec ws;
  ws.task_count = cell.task_count;
  ws.total_utilization = cell.utilization;
  ws.deadline_fraction = cell.deadline_fraction;
  ws.periods = spec.periods;
  std::string error;
  auto ts = sched::try_generate_workload(ws, seed, error);
  if (!ts || cell.processors != 1) return std::nullopt;
  if (cell.policy == "rm" || cell.policy == "dm") {
    if (cell.policy == "rm")
      sched::assign_rate_monotonic(*ts);
    else
      sched::assign_deadline_monotonic(*ts);
    return sched::response_time_analysis(*ts).verdict ==
           sched::Verdict::Schedulable;
  }
  if (cell.policy == "edf") return edf_schedulable(*ts);
  return std::nullopt;
}

}  // namespace perfbench
