#include "exp/runner.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>

#include "core/analyzer.hpp"
#include "core/taskset_aadl.hpp"
#include "sched/workload.hpp"
#include "server/service.hpp"
#include "util/json.hpp"
#include "util/string_utils.hpp"
#include "versa/sweep.hpp"

namespace aadlsched::exp {

namespace {

/// Map a spec policy name onto the render policy + priority assignment.
sched::SchedulingPolicy apply_policy(const std::string& policy,
                                     sched::TaskSet& ts) {
  if (policy == "rm") {
    sched::assign_rate_monotonic(ts);
    return sched::SchedulingPolicy::FixedPriority;
  }
  if (policy == "dm") {
    sched::assign_deadline_monotonic(ts);
    return sched::SchedulingPolicy::FixedPriority;
  }
  if (policy == "llf") return sched::SchedulingPolicy::Llf;
  return sched::SchedulingPolicy::Edf;  // "edf"
}

std::string cell_label(const Cell& c) {
  std::ostringstream os;
  os << "policy=" << c.policy << " utilization=" << c.utilization
     << " task_count=" << c.task_count
     << " deadline_fraction=" << c.deadline_fraction
     << " quantum_ms=" << c.quantum_ms << " engine=" << c.engine
     << " processors=" << c.processors;
  return os.str();
}

server::Request build_request(const ExperimentSpec& spec, const Cell& cell,
                              std::size_t cell_index, std::uint64_t seed,
                              std::string model) {
  server::Request req;
  req.op = server::Op::Analyze;
  req.id = util::concat(
      {"c", std::to_string(cell_index), "-s", std::to_string(seed)});
  req.model = std::move(model);
  req.root = "Root.impl";
  // Only deterministic budgets (spec.hpp): no deadline, no memory budget.
  req.options.quantum_ns = cell.quantum_ms * 1'000'000;
  req.options.max_states = spec.max_states;
  req.options.run_lint = spec.run_lint;
  req.options.engine = core::engine_from_string(cell.engine)
                           .value_or(core::Engine::Enumerative);
  // A fleet sweep must re-run nothing by accident but may reuse its own
  // daemon's cache freely: conclusive cached verdicts are budget-invariant,
  // so cache hits cannot change verdict data, only timing.
  req.no_cache = false;
  return req;
}

/// Fill the verdict fields of `out` from an answered response. The
/// canonical result object is the source of truth: outcome, the static
/// decided_by ids and the engine are read back from it rather than being
/// re-derived, so the report can never disagree with the per-model JSON.
void record_response(const server::Response& resp, RunOutcome& out) {
  out.latency_ms = resp.served_ms;
  out.cached = resp.cached;
  if (!resp.ok) {
    out.outcome = "error";
    out.decided_by_class = "error";
    out.error = resp.error;
    return;
  }
  out.result_json = resp.result_json;
  const auto doc = util::parse_json(resp.result_json);
  const util::JsonValue* outcome = doc ? doc->get("outcome") : nullptr;
  out.outcome = outcome ? outcome->as_string() : "error";
  const util::JsonValue* decided = doc ? doc->get("decided_by") : nullptr;
  if (decided && !decided->as_string().empty()) {
    out.decided_by_class = "static";
    out.decided_by_ids = decided->as_string();
  } else {
    const util::JsonValue* engine = doc ? doc->get("engine") : nullptr;
    out.decided_by_class = engine ? engine->as_string() : "error";
  }
}

}  // namespace

std::optional<std::string> render_model(const ExperimentSpec& spec,
                                        const Cell& cell,
                                        std::size_t cell_index,
                                        std::uint64_t seed,
                                        std::string& error,
                                        double* realized_utilization,
                                        double* drift) {
  sched::WorkloadSpec ws;
  ws.task_count = cell.task_count;
  ws.total_utilization = cell.utilization;
  ws.deadline_fraction = cell.deadline_fraction;
  ws.periods = spec.periods;
  auto ts = sched::try_generate_workload(ws, seed, error);
  if (!ts) return std::nullopt;

  // Partitioned topology: round-robin tasks over the cell's processors.
  // Each distinct Task::processor value becomes one `cpuN` subcomponent.
  for (std::size_t i = 0; i < ts->tasks.size(); ++i)
    ts->tasks[i].processor = static_cast<int>(i % cell.processors);

  const sched::SchedulingPolicy policy = apply_policy(cell.policy, *ts);
  if (realized_utilization) *realized_utilization = ts->utilization();
  if (drift) *drift = ts->utilization_drift();

  core::TasksetRenderOptions ropts;
  ropts.quantum_ns = cell.quantum_ms * 1'000'000;
  // Provenance header: which spec point produced this model. Deterministic
  // (no timestamps), so both backends submit byte-identical model text.
  std::ostringstream hdr;
  hdr << "generated by aadlsched-exp\n"
      << "experiment: " << spec.name << "\n"
      << "cell " << cell_index << ": " << cell_label(cell) << "\n"
      << "seed: " << seed;
  ropts.header_comment = hdr.str();
  return core::taskset_to_aadl(*ts, policy, ropts);
}

ExperimentResult run_experiment(
    const ExperimentSpec& spec, const std::optional<DaemonEndpoint>& daemon,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  const std::vector<Cell> cells = expand_grid(spec);
  const std::size_t total = cells.size() * spec.seed_count;

  ExperimentResult result;
  result.backend = daemon ? "daemon" : "in-process";
  result.total_runs = total;
  result.cells.reserve(cells.size());
  for (const Cell& c : cells) {
    CellResult cr;
    cr.cell = c;
    cr.runs.resize(spec.seed_count);
    result.cells.push_back(std::move(cr));
  }

  // In-process backend: the daemon minus the socket. Each sweep thread
  // generates a model and runs its analysis itself inside handle(); giving
  // the Service one slot per sweep thread means no thread ever waits for a
  // slot.
  std::unique_ptr<server::Service> service;
  if (!daemon) {
    server::ServiceConfig cfg;
    cfg.workers = spec.workers;
    cfg.maintenance_interval_ms = 0;  // no disk tier, nothing to sweep
    service = std::make_unique<server::Service>(cfg);
  }

  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> transport_failures{0};
  const auto t0 = std::chrono::steady_clock::now();

  versa::parallel_sweep(
      total,
      [&](std::size_t i) {
        const std::size_t ci = i / spec.seed_count;
        const std::uint64_t seed =
            spec.seed_begin + (i % spec.seed_count);
        RunOutcome& out = result.cells[ci].runs[i % spec.seed_count];
        out.seed = seed;

        std::string error;
        const auto model =
            render_model(spec, cells[ci], ci, seed, error,
                         &out.realized_utilization, &out.drift);
        if (!model) {
          out.generated = false;
          out.outcome = "error";
          out.decided_by_class = "generator";
          out.error = error;
        } else {
          out.generated = true;
          server::Request req =
              build_request(spec, cells[ci], ci, seed, *model);
          if (service) {
            record_response(service->handle(std::move(req)), out);
          } else {
            std::string terror;
            const auto resp = server::request_with_retry(
                daemon->host, daemon->port, req, daemon->retry, terror);
            if (!resp) {
              out.transport_failed = true;
              out.outcome = "error";
              out.decided_by_class = "transport";
              out.error = terror;
              transport_failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              record_response(*resp, out);
            }
          }
        }
        const std::size_t n = done.fetch_add(1, std::memory_order_relaxed);
        if (progress) progress(n + 1, total);
      },
      spec.workers);

  result.total_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  result.transport_failures = transport_failures.load();
  if (service) service->shutdown();
  return result;
}

}  // namespace aadlsched::exp
