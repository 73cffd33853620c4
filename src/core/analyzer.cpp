#include "core/analyzer.hpp"

#include <iomanip>
#include <map>
#include <sstream>

#include "aadl/parser.hpp"
#include "acsr/printer.hpp"
#include "acsr/semantics.hpp"
#include "core/symbolic_extract.hpp"
#include "versa/inspection.hpp"
#include "versa/symbolic.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::core {

namespace {

struct ThreadView {
  std::string path;
  std::int64_t cmin = 0;
  std::int64_t deadline = 0;
  // Rolling status while walking the trace.
  bool in_compute = false;
  acsr::ParamValue last_e = 0;
};

/// Interpret one event/tau label in AADL terms.
std::string describe_event(const acsr::Context& ctx,
                           const translate::Translation& tr,
                           const acsr::Label& label) {
  const std::string& name = ctx.event_name(label.event);
  const auto thread_of = [&](std::string_view prefix) -> std::string {
    const std::string mangled(name.substr(prefix.size()));
    for (const translate::TranslatedThread& t : tr.threads)
      if (t.mangled == mangled) return t.path;
    return mangled;
  };
  const auto queue_of = [&](std::string_view prefix) -> std::string {
    const std::string mangled(name.substr(prefix.size()));
    for (const translate::TranslatedQueue& q : tr.queues)
      if (q.mangled == mangled) return q.connection;
    return mangled;
  };
  if (util::starts_with(name, "dispatch_"))
    return "dispatch of " + thread_of("dispatch_");
  if (util::starts_with(name, "done_"))
    return "completion of " + thread_of("done_");
  if (util::starts_with(name, "enq_"))
    return "event queued on " + queue_of("enq_");
  if (util::starts_with(name, "deq_"))
    return "event consumed from " + queue_of("deq_");
  return "event " + name;
}

FailingScenario lift_back(acsr::Context& ctx,
                          const translate::Translation& tr,
                          const versa::ExploreResult& er) {
  FailingScenario fs;

  std::vector<ThreadView> views;
  for (const translate::TranslatedThread& t : tr.threads)
    views.push_back(ThreadView{t.path, t.cmin, t.deadline, false, 0});

  std::vector<std::string> rows(views.size());

  const auto absorb_state = [&](acsr::TermId state, bool quantum_passed) {
    const auto comps = versa::inspect(ctx, state);
    for (std::size_t i = 0; i < views.size(); ++i) {
      ThreadView& v = views[i];
      const versa::ComponentState* cs = nullptr;
      for (const auto& c : comps) {
        if (c.role == acsr::DefRole::ThreadState && c.aadl_path == v.path) {
          cs = &c;
          break;
        }
      }
      char cell = static_cast<char>(ThreadQuantum::Idle);
      if (cs && cs->state_name == "Compute" && !cs->params.empty()) {
        const acsr::ParamValue e = cs->params[0];
        if (quantum_passed) {
          cell = v.in_compute && e == v.last_e
                     ? static_cast<char>(ThreadQuantum::Preempted)
                     : static_cast<char>(ThreadQuantum::Running);
          // A fresh dispatch that already ran its first quantum also shows
          // as Running (e moved from 0 baseline).
          if (!v.in_compute && e == 0)
            cell = static_cast<char>(ThreadQuantum::Preempted);
        }
        v.in_compute = true;
        v.last_e = e;
      } else {
        v.in_compute = false;
        v.last_e = 0;
      }
      if (quantum_passed) rows[i].push_back(cell);
    }
  };

  absorb_state(er.initial, false);

  std::int64_t quantum = 0;
  for (const versa::Step& step : er.trace) {
    switch (step.label.kind) {
      case acsr::Label::Kind::Action:
        ++quantum;
        absorb_state(step.target, true);
        fs.steps.push_back("quantum " + std::to_string(quantum) + ": " +
                           render_label(ctx, step.label));
        break;
      case acsr::Label::Kind::Tau:
      case acsr::Label::Kind::Event:
        absorb_state(step.target, false);
        fs.steps.push_back("t=" + std::to_string(quantum) + ": " +
                           describe_event(ctx, tr, step.label));
        break;
    }
  }
  fs.quanta = quantum;
  for (std::size_t i = 0; i < views.size(); ++i)
    fs.timeline.push_back(TimelineRow{views[i].path, rows[i]});

  // Deadline misses in the deadlocked state: a dispatcher stuck in
  // AwaitDone with its clock at the thread's deadline.
  const auto comps = versa::inspect(ctx, er.first_deadlock);
  for (const auto& c : comps) {
    if (c.role != acsr::DefRole::Dispatcher || c.state_name != "AwaitDone" ||
        c.params.empty())
      continue;
    const translate::TranslatedThread* t = tr.thread_by_path(c.aadl_path);
    if (t && c.params[0] >= t->deadline)
      fs.missed_threads.push_back(c.aadl_path);
  }
  // Queue overflow under the Error protocol leaves the queue process dead;
  // surface that as well.
  for (const auto& c : comps) {
    if (c.def == acsr::kInvalidDef && c.name == "NIL")
      fs.missed_threads.push_back("<queue overflow (Error protocol)>");
  }
  // Latency observers stuck at their bound (§5).
  for (const auto& c : comps) {
    if (c.role != acsr::DefRole::Observer || c.state_name != "LatencyWait" ||
        c.params.empty())
      continue;
    for (const translate::TranslatedObserver& o : tr.observers) {
      if (o.description == c.aadl_path && c.params[0] >= o.latency)
        fs.missed_threads.push_back("<latency: " + o.description + ">");
    }
  }
  return fs;
}

/// Map an exploration outcome onto the result. A partial run is still a
/// result: the answer may be Inconclusive(stop_reason). A found deadlock is
/// conclusive even when the budget cut the run short.
void apply_exploration(AnalysisResult& result,
                       const versa::ExploreResult& er) {
  result.states = er.states;
  result.transitions = er.transitions;
  result.outcome = er.deadlock_found ? Outcome::NotSchedulable
                   : er.complete     ? Outcome::Schedulable
                                     : Outcome::Inconclusive;
  result.stop_reason = er.stop;
  result.trace_dropped = er.trace_dropped;
  result.depth = er.depth;
  result.explore_ms = er.wall_ms;
  result.peak_frontier = er.peak_frontier;
  result.stats.semantics = er.sem_stats;
}

/// The symbolic analogue of apply_exploration: map a state-class run onto
/// the result. The class graph reuses the generic exploration counters
/// (states = classes, depth = event-chain length) so downstream rendering —
/// summary, JSON, service stats — needs no second vocabulary.
void apply_symbolic(AnalysisResult& result,
                    const versa::SymbolicResult& sr) {
  result.engine = Engine::Symbolic;
  result.states = sr.classes;
  result.transitions = sr.transitions;
  result.depth = sr.depth;
  result.explore_ms = sr.wall_ms;
  result.peak_frontier = sr.peak_frontier;
  result.stats.zone_subsumptions = sr.subsumptions;
  result.stats.dbm_dimension = sr.dbm_dimension;
  if (sr.stop == util::StopReason::Fault) {
    // validate_model refused a model extract_symbolic accepted — a bug,
    // not a verdict. Surface the reasons; the outcome stays Error.
    for (const std::string& r : sr.witness)
      result.diagnostics += "symbolic engine: " + r + "\n";
    return;
  }
  // A found miss is conclusive even on a truncated run, exactly like the
  // enumerator's first deadlock.
  result.outcome = sr.miss_found ? Outcome::NotSchedulable
                   : sr.complete ? Outcome::Schedulable
                                 : Outcome::Inconclusive;
  result.stop_reason = sr.stop;
  result.symbolic_witness = sr.witness;
}

}  // namespace

std::string_view to_string(Engine e) {
  switch (e) {
    case Engine::Enumerative: return "enumerative";
    case Engine::Symbolic: return "symbolic";
    case Engine::Auto: return "auto";
  }
  return "?";
}

std::optional<Engine> engine_from_string(std::string_view s) {
  if (s == "enumerative") return Engine::Enumerative;
  if (s == "symbolic") return Engine::Symbolic;
  if (s == "auto") return Engine::Auto;
  return std::nullopt;
}

std::string FailingScenario::render() const {
  std::ostringstream os;
  os << "Failing scenario (" << quanta << " quanta";
  if (!missed_threads.empty()) {
    os << "; violated: ";
    for (std::size_t i = 0; i < missed_threads.size(); ++i) {
      if (i) os << ", ";
      os << missed_threads[i];
    }
  }
  os << ")\n";
  std::size_t width = 8;
  for (const TimelineRow& row : timeline)
    width = std::max(width, row.thread_path.size() + 1);
  for (const TimelineRow& row : timeline)
    os << util::pad_right(row.thread_path, width) << '|' << row.cells
       << "|\n";
  os << "  (# running, * preempted, . idle)\n";
  for (const std::string& s : steps) os << "  " << s << '\n';
  return os.str();
}

std::string_view to_string(Outcome o) {
  switch (o) {
    case Outcome::Error: return "error";
    case Outcome::Schedulable: return "schedulable";
    case Outcome::NotSchedulable: return "not-schedulable";
    case Outcome::Inconclusive: return "inconclusive";
  }
  return "?";
}

std::string AnalysisResult::summary() const {
  std::ostringstream os;
  if (outcome == Outcome::Error) {
    os << "ANALYSIS FAILED\n" << diagnostics;
    return os.str();
  }
  if (!decided_by.empty()) {
    os << (outcome == Outcome::Schedulable ? "SCHEDULABLE"
                                           : "NOT SCHEDULABLE")
       << " — decided statically by lint pass " << decided_by << " ("
       << states << " states explored)";
    if (lint_report && !lint_report->verdict_detail.empty())
      os << "\n  " << lint_report->verdict_detail;
    return os.str();
  }
  if (outcome == Outcome::Schedulable) {
    os << "SCHEDULABLE — no deadline violation is reachable (" << states
       << " states, " << transitions << " transitions explored)";
  } else if (outcome == Outcome::NotSchedulable) {
    os << "NOT SCHEDULABLE — deadline violation found (" << states
       << " states explored)";
    if (trace_dropped)
      os << "\n  (counterexample trace dropped under memory pressure; rerun "
            "with a larger --memory-budget-mb for the failing timeline)";
    if (scenario) {
      os << '\n' << scenario->render();
    }
    if (!symbolic_witness.empty()) {
      os << "\nCounterexample event trail:";
      for (const std::string& line : symbolic_witness)
        os << "\n  " << line;
    }
  } else {
    // Partial result with meaning: the explored prefix is deadlock-free.
    os << "INCONCLUSIVE (" << util::to_string(stop_reason)
       << ") — no deadline violation reachable within BFS depth " << depth
       << " / " << states << " states (partial result, not a verdict)";
    if (trace_dropped) os << "\n  trace recording was dropped en route";
  }
  if (engine == Engine::Symbolic)
    os << "\nsymbolic: " << states << " zones explored, "
       << stats.zone_subsumptions << " subsumptions, DBM dimension "
       << stats.dbm_dimension;
  const acsr::Semantics::Stats& sem = stats.semantics;
  os << "\nexploration: " << std::fixed << std::setprecision(2) << explore_ms
     << " ms, peak frontier " << peak_frontier << ", fan memo "
     << sem.memo_hits << " hits / " << sem.computed
     << " computed, successors " << sem.kept << " kept / " << sem.candidates
     << " candidates, " << sem.preempt_checks << " preempt checks, "
     << sem.fold_partials << " fold partials, " << sem.shape_hits
     << " shape hits";
  return os.str();
}

AnalysisResult analyze_instance(const aadl::InstanceModel& instance,
                                const AnalyzerOptions& opts) {
  AnalysisResult result;
  util::DiagnosticEngine diags("<model>");

  // Engine resolution (DESIGN.md §16). Forced-symbolic outside the fragment
  // is an error with the reasons spelled out; auto falls back to
  // enumeration with the same reasons as a note.
  SymbolicExtraction sx;
  bool use_symbolic = false;
  std::string engine_note;
  if (opts.engine != Engine::Enumerative) {
    sx = extract_symbolic(instance, opts.translation);
    if (sx.applicable) {
      use_symbolic = true;
      result.engine = Engine::Symbolic;
    } else if (opts.engine == Engine::Symbolic) {
      result.diagnostics =
          "symbolic engine inapplicable: " + sx.why() + "\n";
      return result;  // Error: the forced engine cannot analyze this
    } else {
      engine_note = "symbolic engine inapplicable: " + sx.why() +
                    "; falling back to enumerative exploration\n";
    }
  }

  // Translation's validation step runs once: lint reads whether it
  // passed, and exploration builds the ACSR network from its plan. No
  // Context exists unless exploration runs. Validation's diagnostics are
  // reported only then, after lint's findings: when lint decides or gates,
  // its hygiene passes already name the same preconditions with check ids.
  util::DiagnosticEngine tdiags("<model>");
  std::optional<translate::Plan> plan;
  if (opts.run_lint || !use_symbolic)
    plan = translate::validate(instance, tdiags, opts.translation);

  if (opts.run_lint) {
    result.lint_report =
        lint::run(instance, plan.has_value(), {opts.translation, &diags});
    const lint::Report& report = *result.lint_report;
    // A conclusive static verdict on a translatable model replaces
    // exploration: the screening passes only decide when exploration would
    // provably agree (DESIGN.md §9).
    if (report.translated && report.verdict != lint::StaticVerdict::None) {
      result.outcome = report.verdict == lint::StaticVerdict::Schedulable
                           ? Outcome::Schedulable
                           : Outcome::NotSchedulable;
      result.decided_by = report.decided_by;
      result.diagnostics = engine_note + diags.render_all();
      return result;
    }
    if (report.errors() > 0) {
      result.diagnostics = engine_note + diags.render_all();
      return result;  // Error: lint gate tripped
    }
  }

  if (use_symbolic) {
    versa::SymbolicOptions sopts;
    sopts.max_classes = opts.exploration.max_states;
    sopts.budget = opts.exploration.budget;
    const versa::SymbolicResult sr = versa::explore_symbolic(sx.model, sopts);
    apply_symbolic(result, sr);
    result.diagnostics = engine_note + diags.render_all() + result.diagnostics;
    return result;
  }

  result.diagnostics = engine_note + diags.render_all() + tdiags.render_all();
  if (!plan) return result;
  acsr::Context ctx;
  const translate::Translation tr = translate::build(ctx, std::move(*plan));
  result.threads = tr.threads;

  versa::ExploreResult er;
  {  // the fan memo is freed before lift-back
    acsr::Semantics sem(ctx);
    er = versa::explore(sem, tr.initial, opts.exploration);
  }
  apply_exploration(result, er);
  // No timeline without a trace: when recording was dropped under memory
  // pressure, lifting would produce an empty "0 quanta" scenario that reads
  // like a real counterexample.
  if (er.deadlock_found && !er.trace.empty())
    result.scenario = lift_back(ctx, tr, er);
  return result;
}

std::unique_ptr<LoadedModel> load_model(
    std::span<const std::string_view> sources, std::string_view root_impl,
    util::DiagnosticEngine& diags) {
  auto loaded = std::make_unique<LoadedModel>();
  for (const std::string_view source : sources)
    if (!aadl::parse_aadl(loaded->model, source, diags)) return nullptr;
  loaded->instance = aadl::instantiate(loaded->model, root_impl, diags);
  if (!loaded->instance || diags.has_errors()) return nullptr;
  return loaded;
}

AnalysisResult analyze_source(std::string_view aadl_source,
                              std::string_view root_impl,
                              const AnalyzerOptions& opts) {
  util::DiagnosticEngine diags("<aadl>");
  const auto loaded = load_model({&aadl_source, 1}, root_impl, diags);
  AnalysisResult result;
  if (loaded) result = analyze_instance(*loaded->instance, opts);
  result.diagnostics = diags.render_all() + result.diagnostics;
  return result;
}

std::string render_acsr(const aadl::InstanceModel& instance,
                        const translate::TranslateOptions& opts,
                        util::DiagnosticEngine& diags) {
  acsr::Context ctx;
  const auto tr = translate::translate(ctx, instance, diags, opts);
  if (!tr) return {};
  acsr::Printer printer(ctx);
  // ACSR comments use '//'; the dump stays parseable by acsr::parse_module.
  return printer.module() + "// initial state: " +
         printer.ground_term(tr->initial) + "\n";
}

}  // namespace aadlsched::core
