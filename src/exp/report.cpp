#include "exp/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/json.hpp"

namespace aadlsched::exp {

namespace {

using util::JsonWriter;

struct Tally {
  std::size_t schedulable = 0;
  std::size_t not_schedulable = 0;
  std::size_t inconclusive = 0;
  std::size_t error = 0;

  std::size_t total() const {
    return schedulable + not_schedulable + inconclusive + error;
  }
  void add(const std::string& outcome) {
    if (outcome == "schedulable")
      ++schedulable;
    else if (outcome == "not-schedulable")
      ++not_schedulable;
    else if (outcome == "inconclusive")
      ++inconclusive;
    else
      ++error;
  }
  void render(JsonWriter& w) const {
    w.begin_object();
    w.key("schedulable").value(std::uint64_t{schedulable});
    w.key("not_schedulable").value(std::uint64_t{not_schedulable});
    w.key("inconclusive").value(std::uint64_t{inconclusive});
    w.key("error").value(std::uint64_t{error});
    w.end_object();
  }
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

void render_cell_axes(JsonWriter& w, const Cell& c) {
  w.key("policy").value(c.policy);
  w.key("utilization").value(c.utilization);
  w.key("task_count").value(std::uint64_t{c.task_count});
  w.key("deadline_fraction").value(c.deadline_fraction);
  w.key("quantum_ms").value(c.quantum_ms);
  w.key("engine").value(c.engine);
  w.key("processors").value(c.processors);
}

}  // namespace

std::string render_report(const ExperimentSpec& spec,
                          const ExperimentResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kReportSchemaVersion);
  w.key("name").value(spec.name);
  w.key("backend").value(result.backend);

  w.key("grid").begin_object();
  w.key("policy").begin_array();
  for (const auto& p : spec.policies) w.value(p);
  w.end_array();
  w.key("utilization").begin_array();
  for (const double u : spec.utilizations) w.value(u);
  w.end_array();
  w.key("task_count").begin_array();
  for (const std::size_t n : spec.task_counts) w.value(std::uint64_t{n});
  w.end_array();
  w.key("deadline_fraction").begin_array();
  for (const double f : spec.deadline_fractions) w.value(f);
  w.end_array();
  w.key("quantum_ms").begin_array();
  for (const std::int64_t q : spec.quantum_ms) w.value(q);
  w.end_array();
  w.key("engine").begin_array();
  for (const auto& e : spec.engines) w.value(e);
  w.end_array();
  w.key("processors").begin_array();
  for (const int p : spec.processors) w.value(p);
  w.end_array();
  w.key("seeds").begin_object();
  w.key("begin").value(spec.seed_begin);
  w.key("count").value(spec.seed_count);
  w.end_object();
  w.key("max_states").value(spec.max_states);
  w.key("lint").value(spec.run_lint);
  w.key("bin_width").value(spec.bin_width);
  w.end_object();

  Tally totals;
  // Realized-utilization histogram over all generated runs: bin index ->
  // (runs, schedulable). Binning by the realized value, not the requested
  // axis point, is the whole reason TaskSet records its drift — quantized
  // WCETs silently move task sets between bins (workload.hpp).
  std::map<std::int64_t, std::pair<std::size_t, std::size_t>> curve;

  w.key("cells").begin_array();
  for (const CellResult& cr : result.cells) {
    w.begin_object();
    render_cell_axes(w, cr.cell);

    Tally tally;
    std::map<std::string, std::size_t> decided;
    std::vector<double> latencies;
    std::size_t cached = 0, transport = 0;
    for (const RunOutcome& run : cr.runs) {
      tally.add(run.outcome);
      totals.add(run.outcome);
      ++decided[run.decided_by_class];
      if (run.generated && !run.transport_failed) {
        latencies.push_back(run.latency_ms);
        if (run.cached) ++cached;
      }
      if (run.transport_failed) ++transport;
      if (run.generated) {
        const auto bin = static_cast<std::int64_t>(
            std::floor(run.realized_utilization / spec.bin_width));
        auto& [n, sched] = curve[bin];
        ++n;
        if (run.outcome == "schedulable") ++sched;
      }
    }

    w.key("verdicts").begin_object();
    w.key("runs").begin_array();
    for (const RunOutcome& run : cr.runs) {
      w.begin_object();
      w.key("seed").value(run.seed);
      w.key("outcome").value(run.outcome);
      w.key("decided_by").value(run.decided_by_class);
      if (!run.decided_by_ids.empty())
        w.key("decided_by_ids").value(run.decided_by_ids);
      w.key("realized_utilization").value(run.realized_utilization);
      w.key("drift").value(run.drift);
      w.end_object();
    }
    w.end_array();
    w.key("outcomes");
    tally.render(w);
    w.key("acceptance")
        .value(tally.total() == 0
                   ? 0.0
                   : static_cast<double>(tally.schedulable) /
                         static_cast<double>(tally.total()));
    w.key("decided_by").begin_object();
    for (const auto& [cls, n] : decided) w.key(cls).value(std::uint64_t{n});
    w.end_object();
    w.end_object();  // verdicts

    std::sort(latencies.begin(), latencies.end());
    w.key("timing").begin_object();
    double sum = 0;
    for (const double ms : latencies) sum += ms;
    w.key("mean_ms").value(latencies.empty() ? 0.0
                                             : sum / static_cast<double>(
                                                         latencies.size()));
    w.key("p50_ms").value(percentile(latencies, 0.50));
    w.key("p95_ms").value(percentile(latencies, 0.95));
    w.key("max_ms").value(latencies.empty() ? 0.0 : latencies.back());
    w.key("cached").value(std::uint64_t{cached});
    w.key("transport_failures").value(std::uint64_t{transport});
    w.end_object();

    w.end_object();  // cell
  }
  w.end_array();

  w.key("curve").begin_array();
  for (const auto& [bin, counts] : curve) {
    const auto& [n, sched] = counts;
    w.begin_object();
    w.key("bin_lo").value(static_cast<double>(bin) * spec.bin_width);
    w.key("bin_hi").value(static_cast<double>(bin + 1) * spec.bin_width);
    w.key("runs").value(std::uint64_t{n});
    w.key("schedulable").value(std::uint64_t{sched});
    w.key("acceptance")
        .value(n == 0 ? 0.0
                      : static_cast<double>(sched) / static_cast<double>(n));
    w.end_object();
  }
  w.end_array();

  w.key("totals");
  totals.render(w);
  w.key("transport").begin_object();
  w.key("failures").value(std::uint64_t{result.transport_failures});
  w.end_object();
  w.key("timing").begin_object();
  w.key("total_ms").value(result.total_ms);
  w.key("models_per_sec")
      .value(result.total_ms > 0
                 ? static_cast<double>(result.total_runs) /
                       (result.total_ms / 1000.0)
                 : 0.0);
  w.end_object();
  w.end_object();
  return std::move(w).str() + "\n";
}

}  // namespace aadlsched::exp
