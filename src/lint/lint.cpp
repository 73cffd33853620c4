#include "lint/lint.hpp"

#include <map>
#include <set>
#include <sstream>

#include "lint/passes.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::lint {

std::string_view to_string(Tier t) {
  switch (t) {
    case Tier::ModelHygiene: return "model-hygiene";
    case Tier::Screening: return "screening";
    case Tier::AcsrWellFormedness: return "acsr-well-formedness";
  }
  return "?";
}

std::string_view to_string(StaticVerdict v) {
  switch (v) {
    case StaticVerdict::None: return "none";
    case StaticVerdict::Schedulable: return "schedulable";
    case StaticVerdict::NotSchedulable: return "not_schedulable";
  }
  return "?";
}

std::string Finding::render() const {
  std::ostringstream os;
  os << util::to_string(severity) << ": [" << check_id << ' ' << check_name
     << "] ";
  if (!component.empty()) os << component << ": ";
  os << message;
  return os.str();
}

std::size_t Report::count(util::Severity sev) const {
  std::size_t n = 0;
  for (const Finding& f : findings)
    if (f.severity == sev) ++n;
  return n;
}

std::string Report::render_text() const {
  std::ostringstream os;
  for (const Finding& f : findings) os << f.render() << '\n';
  os << "lint: " << errors() << " error(s), " << warnings()
     << " warning(s), " << count(util::Severity::Note) << " note(s)";
  if (verdict != StaticVerdict::None) {
    os << "; static verdict: " << to_string(verdict) << " (decided by "
       << decided_by << ')';
    if (!verdict_detail.empty()) os << " — " << verdict_detail;
  }
  os << '\n';
  return os.str();
}

std::string Report::render_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema_version\": " << kLintSchemaVersion << ",\n";
  os << "  \"lint_pass_version\": " << kLintPassVersion << ",\n";
  os << "  \"verdict\": \"" << to_string(verdict) << "\",\n";
  os << "  \"translated\": " << (translated ? "true" : "false") << ",\n";
  os << "  \"decided_by\": \"" << util::json_escape(decided_by) << "\",\n";
  os << "  \"detail\": \"" << util::json_escape(verdict_detail) << "\",\n";
  os << "  \"counts\": {\"error\": " << errors() << ", \"warning\": "
     << warnings() << ", \"note\": " << count(util::Severity::Note)
     << "},\n";
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"check\": \"" << f.check_id << "\", \"name\": \""
       << f.check_name << "\", \"severity\": \""
       << util::to_string(f.severity) << "\", \"line\": " << f.loc.line
       << ", \"column\": " << f.loc.column << ", \"component\": \""
       << util::json_escape(f.component) << "\", \"message\": \""
       << util::json_escape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"processor_verdicts\": [";
  for (std::size_t i = 0; i < processor_verdicts.size(); ++i) {
    const ProcessorVerdict& pv = processor_verdicts[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"processor\": \"" << util::json_escape(pv.processor)
       << "\", \"check\": \"" << pv.check_id << "\", \"schedulable\": "
       << (pv.schedulable ? "true" : "false") << ", \"detail\": \""
       << util::json_escape(pv.detail) << "\"}";
  }
  os << (processor_verdicts.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"certificates\": [";
  for (std::size_t i = 0; i < certificates.size(); ++i) {
    const StaticCertificate& c = certificates[i];
    os << (i ? ",\n    " : "\n    ");
    os << "{\"check\": \"" << c.check_id << "\", \"kind\": \"" << c.kind
       << "\", \"processor\": \"" << util::json_escape(c.processor)
       << "\", \"schedulable\": " << (c.schedulable ? "true" : "false")
       << ", \"window\": " << c.window_q << ", \"demand\": " << c.demand_q
       << ", \"tasks\": [";
    for (std::size_t j = 0; j < c.tasks.size(); ++j) {
      const CertTask& t = c.tasks[j];
      os << (j ? ",\n      " : "\n      ");
      os << "{\"path\": \"" << util::json_escape(t.path)
         << "\", \"wcet\": " << t.wcet_q << ", \"period\": " << t.period_q
         << ", \"deadline\": " << t.deadline_q
         << ", \"priority\": " << t.priority
         << ", \"blocking\": " << t.blocking_q
         << ", \"response\": " << t.response_q << '}';
    }
    os << (c.tasks.empty() ? "]}" : "\n    ]}");
  }
  os << (certificates.empty() ? "]" : "\n  ]") << ",\n";
  // Every pass runs on every model; the key stays for schema v1 readers.
  os << "  \"skipped\": []\n}\n";
  return os.str();
}

void Sink::report(util::Severity sev, util::SourceLoc loc,
                  std::string component, std::string message) {
  Finding f;
  f.check_id = std::string(current_ ? current_->id : "AL???");
  f.check_name = std::string(current_ ? current_->name : "");
  f.severity = sev;
  f.loc = loc;
  f.component = std::move(component);
  f.message = std::move(message);
  if (mirror_) {
    std::string m = "[" + f.check_id + " " + f.check_name + "] ";
    if (!f.component.empty()) m += f.component + ": ";
    m += f.message;
    mirror_->report(sev, loc, std::move(m));
  }
  report_.findings.push_back(std::move(f));
}

void Sink::conclusive(StaticVerdict v, std::string detail) {
  if (v == StaticVerdict::None) return;
  // NotSchedulable (a guaranteed counterexample) dominates a sufficient
  // Schedulable bound.
  if (report_.verdict == StaticVerdict::NotSchedulable) return;
  if (report_.verdict == StaticVerdict::Schedulable &&
      v != StaticVerdict::NotSchedulable)
    return;
  report_.verdict = v;
  report_.decided_by = std::string(current_ ? current_->id : "?");
  report_.verdict_detail = std::move(detail);
}

void Sink::certificate(StaticCertificate cert) {
  cert.check_id = std::string(current_ ? current_->id : "?");
  report_.certificates.push_back(std::move(cert));
}

void Sink::processor_verdict(std::string processor, bool schedulable,
                             std::string detail) {
  ProcessorVerdict pv;
  pv.processor = std::move(processor);
  pv.check_id = std::string(current_ ? current_->id : "?");
  pv.schedulable = schedulable;
  pv.detail = std::move(detail);
  report_.processor_verdicts.push_back(std::move(pv));
}

void Registry::add(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

const Pass* Registry::find(std::string_view id_or_name) const {
  for (const auto& p : passes_)
    if (p->info().id == id_or_name || p->info().name == id_or_name)
      return p.get();
  return nullptr;
}

const Registry& Registry::builtin() {
  // Explicit registration (not self-registering statics: those would be
  // dropped when linking the static library).
  static const Registry* reg = [] {
    auto* r = new Registry;
    register_model_passes(*r);
    register_screening_passes(*r);
    register_exact_passes(*r);
    register_acsr_passes(*r);
    return r;
  }();
  return *reg;
}

namespace {

/// Combine per-processor Schedulable claims into a whole-model verdict: the
/// classical abstraction must have been exact (translation succeeded, no
/// latency observers) and every processor that carries threads must be
/// vouched for by a screening pass.
void finalize_verdict(const aadl::InstanceModel& instance,
                      const Options& opts, Report& report) {
  if (report.verdict != StaticVerdict::None) return;
  if (!report.translated) return;
  if (!opts.translation.latency_specs.empty()) return;
  if (report.errors() > 0) return;

  std::set<const aadl::ComponentInstance*> thread_bearing;
  for (const auto& [thread, cpu] : instance.bindings)
    thread_bearing.insert(cpu);
  if (thread_bearing.empty()) return;

  std::set<std::string> deciders;
  for (const aadl::ComponentInstance* cpu : thread_bearing) {
    bool vouched = false;
    for (const ProcessorVerdict& pv : report.processor_verdicts) {
      if (pv.schedulable && pv.processor == cpu->path) {
        vouched = true;
        deciders.insert(pv.check_id);
        break;
      }
    }
    if (!vouched) return;
  }
  report.verdict = StaticVerdict::Schedulable;
  report.decided_by = util::join(
      std::vector<std::string>(deciders.begin(), deciders.end()), "+");
  report.verdict_detail =
      "every thread-bearing processor passes a sufficient bound on an "
      "exactly-abstracted model";
}

}  // namespace

std::vector<CertTask> cert_rows(const ScreenCpu& sc, bool periodic_only,
                                const std::vector<std::int64_t>* blocking,
                                const std::vector<std::int64_t>* response) {
  std::vector<CertTask> rows;
  for (std::size_t i = 0; i < sc.tasks.size(); ++i) {
    const ScreenTask& t = sc.tasks[i];
    if (periodic_only && t.dispatch != aadl::DispatchProtocol::Periodic)
      continue;
    CertTask row;
    row.path = t.inst->path;
    row.wcet_q = t.quanta.cmax;
    row.period_q = t.quanta.period;
    row.deadline_q = t.quanta.deadline;
    row.priority = t.priority;
    if (blocking && i < blocking->size()) row.blocking_q = (*blocking)[i];
    if (response && i < response->size()) row.response_q = (*response)[i];
    rows.push_back(std::move(row));
  }
  return rows;
}

Report run(const aadl::InstanceModel& instance, bool translated,
           const Options& opts) {
  const Subject subject{
      instance, opts.translation.quantum_ns,
      extract_screen_cpus(instance, opts.translation.quantum_ns)};
  Report report;
  report.translated = translated;
  Sink sink(report, opts.diags);
  for (const auto& pass : Registry::builtin().passes()) {
    sink.set_current(&pass->info());
    pass->run(subject, sink);
  }
  sink.set_current(nullptr);
  finalize_verdict(instance, opts, report);
  return report;
}

Report run(const aadl::InstanceModel& instance, const Options& opts) {
  util::DiagnosticEngine scratch("<lint>");
  const bool translated =
      translate::validate(instance, scratch, opts.translation).has_value();
  return run(instance, translated, opts);
}

}  // namespace aadlsched::lint
