#include "exp/spec.hpp"

#include <cmath>

#include "core/analyzer.hpp"
#include "sched/workload.hpp"
#include "util/json.hpp"

namespace aadlsched::exp {

namespace {

using util::JsonValue;

bool known_policy(const std::string& p) {
  return p == "rm" || p == "dm" || p == "edf" || p == "llf";
}

/// Read an optional array member into `out` via `one` (element decoder,
/// false = shape error). A present-but-not-array member or an empty array
/// is a spec error; an absent member keeps the default.
template <typename T, typename Fn>
bool read_axis(const JsonValue& obj, const char* key, std::vector<T>& out,
               std::string& error, Fn one) {
  const JsonValue* v = obj.get(key);
  if (!v) return true;
  if (!v->is_array() || v->as_array().empty()) {
    error = std::string("'") + key + "' must be a non-empty array";
    return false;
  }
  out.clear();
  for (const JsonValue& el : v->as_array()) {
    T value{};
    if (!one(el, value)) {
      error = std::string("invalid element in '") + key + "'";
      return false;
    }
    out.push_back(std::move(value));
  }
  return true;
}

}  // namespace

std::optional<ExperimentSpec> parse_experiment_spec(const std::string& text,
                                                    std::string& error) {
  const auto doc = util::parse_json(text, &error);
  if (!doc) {
    error = "spec is not valid JSON: " + error;
    return std::nullopt;
  }
  if (!doc->is_object()) {
    error = "spec must be a JSON object";
    return std::nullopt;
  }

  ExperimentSpec spec;
  if (const JsonValue* v = doc->get("name"); v && v->is_string())
    spec.name = v->as_string();

  const JsonValue empty_grid{JsonValue::Object{}};
  const JsonValue* grid = doc->get("grid");
  if (!grid) grid = &empty_grid;
  if (!grid->is_object()) {
    error = "'grid' must be an object";
    return std::nullopt;
  }

  const auto str = [](const JsonValue& el, std::string& out) {
    if (!el.is_string()) return false;
    out = el.as_string();
    return true;
  };
  const auto num = [](const JsonValue& el, double& out) {
    if (!el.is_number()) return false;
    out = el.as_double();
    return true;
  };
  const auto count = [](const JsonValue& el, std::size_t& out) {
    if (!el.is_int() || el.as_int() < 0) return false;
    out = static_cast<std::size_t>(el.as_int());
    return true;
  };
  const auto int64 = [](const JsonValue& el, std::int64_t& out) {
    if (!el.is_int()) return false;
    out = el.as_int();
    return true;
  };
  const auto int32 = [](const JsonValue& el, int& out) {
    if (!el.is_int()) return false;
    out = static_cast<int>(el.as_int());
    return true;
  };

  if (!read_axis(*grid, "policy", spec.policies, error, str) ||
      !read_axis(*grid, "utilization", spec.utilizations, error, num) ||
      !read_axis(*grid, "task_count", spec.task_counts, error, count) ||
      !read_axis(*grid, "deadline_fraction", spec.deadline_fractions, error,
                 num) ||
      !read_axis(*grid, "quantum_ms", spec.quantum_ms, error, int64) ||
      !read_axis(*grid, "engine", spec.engines, error, str) ||
      !read_axis(*grid, "processors", spec.processors, error, int32))
    return std::nullopt;

  if (const JsonValue* seeds = doc->get("seeds")) {
    if (!seeds->is_object()) {
      error = "'seeds' must be an object {begin, count}";
      return std::nullopt;
    }
    if (const JsonValue* v = seeds->get("begin"); v && v->is_int())
      spec.seed_begin = static_cast<std::uint64_t>(v->as_int());
    if (const JsonValue* v = seeds->get("count"); v && v->is_int()) {
      if (v->as_int() < 1) {
        error = "'seeds.count' must be >= 1";
        return std::nullopt;
      }
      spec.seed_count = static_cast<std::uint64_t>(v->as_int());
    }
  }

  if (const JsonValue* v = doc->get("periods")) {
    if (!v->is_array()) {
      error = "'periods' must be an array of quanta";
      return std::nullopt;
    }
    spec.periods.clear();
    for (const JsonValue& el : v->as_array()) {
      if (!el.is_int()) {
        error = "'periods' must contain integers (quanta)";
        return std::nullopt;
      }
      spec.periods.push_back(el.as_int());
    }
  }

  if (const JsonValue* budget = doc->get("budget")) {
    if (!budget->is_object()) {
      error = "'budget' must be an object";
      return std::nullopt;
    }
    if (budget->get("deadline_ms")) {
      error =
          "'budget.deadline_ms' is not supported: wall-clock budgets make "
          "verdicts machine-dependent and break the in-process/daemon "
          "agreement contract; use 'budget.max_states'";
      return std::nullopt;
    }
    if (const JsonValue* v = budget->get("max_states"); v && v->is_int()) {
      if (v->as_int() < 1) {
        error = "'budget.max_states' must be >= 1";
        return std::nullopt;
      }
      spec.max_states = static_cast<std::uint64_t>(v->as_int());
    }
  }

  if (const JsonValue* v = doc->get("lint"); v && v->is_bool())
    spec.run_lint = v->as_bool();
  if (const JsonValue* v = doc->get("bin_width"); v && v->is_number())
    spec.bin_width = v->as_double();
  if (const JsonValue* v = doc->get("workers"); v && v->is_int()) {
    if (v->as_int() < 0 || v->as_int() > 65536) {  // the --workers range
      error = "'workers' must lie in [0, 65536]";
      return std::nullopt;
    }
    spec.workers = static_cast<std::size_t>(v->as_int());
  }

  // --- semantic validation ------------------------------------------------
  for (const std::string& p : spec.policies)
    if (!known_policy(p)) {
      error = "unknown policy '" + p + "' (expected rm, dm, edf or llf)";
      return std::nullopt;
    }
  for (const std::string& e : spec.engines)
    if (!core::engine_from_string(e)) {
      error = "unknown engine '" + e +
              "' (expected enumerative, symbolic or auto)";
      return std::nullopt;
    }
  for (const double u : spec.utilizations)
    if (!(u > 0) || !std::isfinite(u)) {
      error = "utilization axis values must be finite and > 0";
      return std::nullopt;
    }
  for (const double f : spec.deadline_fractions)
    if (!(f >= 0.0 && f <= 1.0)) {
      error = "deadline_fraction axis values must lie in [0, 1]";
      return std::nullopt;
    }
  for (const std::int64_t q : spec.quantum_ms)
    if (q < 1 || q > 1'000'000'000) {  // the aadlsched --quantum range
      error = "quantum_ms axis values must lie in [1, 1000000000]";
      return std::nullopt;
    }
  for (const int p : spec.processors)
    if (p < 1) {
      error = "processors axis values must be >= 1";
      return std::nullopt;
    }
  if (!(spec.bin_width > 0) || !std::isfinite(spec.bin_width)) {
    error = "'bin_width' must be finite and > 0";
    return std::nullopt;
  }

  // The workload generator is the authority on generability: run its
  // validator once per (task_count, utilization, deadline_fraction) corner
  // so an ungenerable axis combination (most importantly an empty or
  // zero-valued period set) is a spec-load error with the generator's own
  // diagnostic, not a thousand per-model failures later.
  for (const std::size_t n : spec.task_counts)
    for (const double u : spec.utilizations)
      for (const double f : spec.deadline_fractions) {
        sched::WorkloadSpec ws;
        ws.task_count = n;
        ws.total_utilization = u;
        ws.deadline_fraction = f;
        ws.periods = spec.periods;
        if (const auto bad = sched::validate_workload_spec(ws)) {
          error = "ungenerable workload spec: " + *bad;
          return std::nullopt;
        }
      }

  return spec;
}

std::vector<Cell> expand_grid(const ExperimentSpec& spec) {
  std::vector<Cell> cells;
  cells.reserve(spec.policies.size() * spec.utilizations.size() *
                spec.task_counts.size() * spec.deadline_fractions.size() *
                spec.quantum_ms.size() * spec.engines.size() *
                spec.processors.size());
  for (const std::string& policy : spec.policies)
    for (const double u : spec.utilizations)
      for (const std::size_t n : spec.task_counts)
        for (const double f : spec.deadline_fractions)
          for (const std::int64_t q : spec.quantum_ms)
            for (const std::string& engine : spec.engines)
              for (const int procs : spec.processors)
                cells.push_back({policy, u, n, f, q, engine, procs});
  return cells;
}

}  // namespace aadlsched::exp
