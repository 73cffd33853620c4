// Top-level API: the role of the paper's OSATE plugin (§5, Implementation).
//
// The Analyzer performs the plugin's three steps: (1) translate the AADL
// model into ACSR, (2) explore the state space looking for deadlocks, and
// (3) when a deadlock is found, "raise" the failing scenario back to the
// level of the original AADL model: every step of the trace is re-expressed
// in terms of AADL components (dispatches, completions, per-thread per-
// quantum run/preempted status) and rendered as a time line (§5).
//
// Translation is split in two (translate::validate, translate::build). A
// request validates once, lints the AADL model if asked, and builds the
// ACSR network only when enumerative exploration runs: a request that lint
// decides or gates, or that the symbolic engine takes, never creates an
// acsr::Context.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aadl/instance.hpp"
#include "lint/lint.hpp"
#include "translate/translator.hpp"
#include "versa/explorer.hpp"

namespace aadlsched::core {

/// Which exploration engine analyzes the model (DESIGN.md §16).
/// Enumerative is the paper's unit-quantum BFS; Symbolic is the
/// quantum-independent state-class engine over its restricted fragment;
/// Auto picks Symbolic when the model is inside the fragment and falls
/// back to Enumerative (with the inapplicability reasons in diagnostics)
/// otherwise.
enum class Engine : std::uint8_t { Enumerative, Symbolic, Auto };

std::string_view to_string(Engine e);
std::optional<Engine> engine_from_string(std::string_view s);

struct AnalyzerOptions {
  translate::TranslateOptions translation;
  versa::ExploreOptions exploration;
  /// Exploration engine selection (see Engine above).
  Engine engine = Engine::Enumerative;

  /// Run the static analysis front door (src/lint) before exploring.
  /// Off by default at the library level (programmatic callers see
  /// unchanged behavior); tools/aadlsched enables it unless --no-lint.
  bool run_lint = false;
  /// Ignored by analyze_instance: lint runs with `translation`, on the
  /// outcome of the one validation that exploration builds from, and
  /// mirrors its findings into the run's diagnostics. A conclusive static
  /// verdict on a translatable model replaces exploration and reports 0
  /// states; an error-severity finding stops the run (DESIGN.md §9). Only
  /// perfbench still reads this field.
  lint::Options lint;
};

/// Per-thread status in one quantum of a failing scenario.
enum class ThreadQuantum : char {
  Idle = '.',       // not dispatched (awaiting dispatch / done)
  Running = '#',    // executed on its processor this quantum
  Preempted = '*',  // dispatched but did not get the processor
};

struct TimelineRow {
  std::string thread_path;
  std::string cells;  // one ThreadQuantum char per quantum
};

struct FailingScenario {
  /// Human-readable steps ("t=3: dispatch of hci.refspeed", "quantum 4:
  /// ccl.cruise1 runs on cpu_ccl_processor", ...).
  std::vector<std::string> steps;
  /// Per-thread ASCII timeline of the failing prefix.
  std::vector<TimelineRow> timeline;
  /// Threads whose deadline was violated in the deadlocked state.
  std::vector<std::string> missed_threads;
  std::int64_t quanta = 0;  // length of the failing prefix in quanta

  std::string render() const;
};

/// What an analysis run means. Distinguishing Inconclusive from the
/// conclusive verdicts is a correctness matter, not cosmetics: a run
/// truncated by max_states / a deadline / memory pressure / cancellation
/// has *not* proved schedulability, and must never be read as such
/// (DESIGN.md §10). A found deadlock, by contrast, is conclusive even on a
/// truncated run.
enum class Outcome : std::uint8_t {
  Error,           // front end / translation / lint gate failed; no verdict
  Schedulable,     // full state space explored, no deadlock
  NotSchedulable,  // a deadlock (deadline violation) was reached
  Inconclusive,    // exploration stopped early — see stop_reason
};

std::string_view to_string(Outcome o);

/// The canonical part of a run: exactly the fields the result JSON carries
/// (core/result_json.hpp renders a Verdict and nothing else). How the run
/// went lives in RunStats, outside this type.
struct Verdict {
  Outcome outcome = Outcome::Error;
  /// Why exploration stopped early (None unless outcome == Inconclusive).
  util::StopReason stop_reason = util::StopReason::None;
  /// Engine that produced (or would have produced) the verdict: never
  /// Auto. The cross-engine agreement suite normalizes it away alongside
  /// the other engine-dependent fields.
  Engine engine = Engine::Enumerative;
  /// Explored states and transitions; the symbolic engine reports its
  /// class graph here (states = classes).
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  /// Deepest fully-expanded BFS level ("no deadlock within depth d").
  std::uint64_t depth = 0;
  /// Trace recording was dropped to relieve memory pressure; the verdict
  /// stands but no counterexample timeline is available.
  bool trace_dropped = false;
  double explore_ms = 0;
  std::uint64_t peak_frontier = 0;
  /// Check id(s) that decided the verdict statically (empty when the
  /// verdict came from exploration).
  std::string decided_by;
  /// Present when AnalyzerOptions::run_lint was set; its certificates back
  /// a static verdict.
  std::optional<lint::Report> lint_report;
  std::string diagnostics;  // rendered front-end/translation messages
};

/// How a run went, beside its verdict and never rendered into the result
/// JSON.
struct RunStats {
  // Symbolic engine (DESIGN.md §16); zero on enumerative runs.
  std::uint64_t zone_subsumptions = 0;  // classes pruned by zone inclusion
  std::uint64_t dbm_dimension = 0;      // clocks + reference row
  /// The explorer's hot-loop counters (versa::ExploreResult::sem_stats).
  acsr::Semantics::Stats semantics;
};

struct AnalysisResult : Verdict {
  std::optional<FailingScenario> scenario;
  std::vector<translate::TranslatedThread> threads;
  /// Symbolic counterexample: the event trail to the missed deadline
  /// ("t=40ms: deadline check", ...). The enumerative engine renders its
  /// counterexample as `scenario` instead — a symbolic run has no quantum
  /// timeline to draw.
  std::vector<std::string> symbolic_witness;
  RunStats stats;

  std::string summary() const;
};

/// A parsed model and the instance of its root, kept together: the instance
/// points into the model's declarations.
struct LoadedModel {
  aadl::Model model;
  std::unique_ptr<aadl::InstanceModel> instance;
};

/// The front end every entry point shares: parse each source into one model
/// (multi-file packages) and instantiate `root_impl`. Null when a source
/// fails to parse or the instance has errors; `diags` holds the diagnostics
/// either way, warnings included.
std::unique_ptr<LoadedModel> load_model(
    std::span<const std::string_view> sources, std::string_view root_impl,
    util::DiagnosticEngine& diags);

/// Analyze a parsed-and-instantiated model.
AnalysisResult analyze_instance(const aadl::InstanceModel& instance,
                                const AnalyzerOptions& opts = {});

/// Parse AADL source, instantiate `root_impl`, analyze.
AnalysisResult analyze_source(std::string_view aadl_source,
                              std::string_view root_impl,
                              const AnalyzerOptions& opts = {});

/// Render the translated ACSR module of an instance (the paper's "input of
/// the VERSA tool") followed by its initial state; empty when translation
/// fails, with the reasons in `diags`.
std::string render_acsr(const aadl::InstanceModel& instance,
                        const translate::TranslateOptions& opts,
                        util::DiagnosticEngine& diags);

}  // namespace aadlsched::core
