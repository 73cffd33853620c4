#include "core/result_json.hpp"

namespace aadlsched::core {

std::optional<Outcome> outcome_from_string(std::string_view s) {
  for (const Outcome o : {Outcome::Error, Outcome::Schedulable,
                          Outcome::NotSchedulable, Outcome::Inconclusive}) {
    if (s == to_string(o)) return o;
  }
  return std::nullopt;
}

namespace {

/// The machine-checkable witnesses backing a static verdict, narrowed to
/// the passes named in decided_by (other certificates stay available via
/// --lint-format json). Shape mirrors lint::Report::render_json.
void append_static_certificate(util::JsonWriter& w, const AnalysisResult& r) {
  const lint::Report& report = *r.lint_report;
  w.key("static_certificate").begin_object();
  w.key("decided_by").value(r.decided_by);
  w.key("verdict").value(lint::to_string(report.verdict));
  w.key("lint_pass_version").value(lint::kLintPassVersion);
  w.key("certificates").begin_array();
  for (const lint::StaticCertificate& c : report.certificates) {
    if (r.decided_by.find(c.check_id) == std::string::npos) continue;
    w.begin_object();
    w.key("check").value(c.check_id);
    w.key("kind").value(c.kind);
    w.key("processor").value(c.processor);
    w.key("schedulable").value(c.schedulable);
    w.key("window").value(c.window_q);
    w.key("demand").value(c.demand_q);
    w.key("tasks").begin_array();
    for (const lint::CertTask& t : c.tasks) {
      w.begin_object();
      w.key("path").value(t.path);
      w.key("wcet").value(t.wcet_q);
      w.key("period").value(t.period_q);
      w.key("deadline").value(t.deadline_q);
      w.key("priority").value(t.priority);
      w.key("blocking").value(t.blocking_q);
      w.key("response").value(t.response_q);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

void append_result_fields(util::JsonWriter& w, const AnalysisResult& r) {
  w.key("schema_version").value(kResultSchemaVersion);
  w.key("outcome").value(to_string(r.outcome));
  w.key("stop_reason").value(util::to_string(r.stop_reason));
  w.key("engine").value(to_string(r.engine));
  w.key("schedulable").value(r.ok && r.schedulable);
  w.key("exhaustive").value(r.exhaustive);
  w.key("states").value(r.states);
  w.key("transitions").value(r.transitions);
  w.key("depth").value(r.depth);
  w.key("trace_dropped").value(r.trace_dropped);
  w.key("explore_ms").value(r.explore_ms);
  w.key("peak_frontier").value(r.peak_frontier);
  if (!r.decided_by.empty()) w.key("decided_by").value(r.decided_by);
  if (!r.decided_by.empty() && r.lint_report &&
      r.lint_report->verdict != lint::StaticVerdict::None)
    append_static_certificate(w, r);
  if (r.outcome == Outcome::Error) w.key("error").value(r.diagnostics);
}

std::string render_result_json(const AnalysisResult& r) {
  util::JsonWriter w;
  w.begin_object();
  append_result_fields(w, r);
  w.end_object();
  return std::move(w).str();
}

}  // namespace aadlsched::core
