// Top-level API: the role of the paper's OSATE plugin (§5, Implementation).
//
// The Analyzer performs the plugin's three steps: (1) translate the AADL
// model into ACSR, (2) explore the state space looking for deadlocks, and
// (3) when a deadlock is found, "raise" the failing scenario back to the
// level of the original AADL model: every step of the trace is re-expressed
// in terms of AADL components (dispatches, completions, per-thread per-
// quantum run/preempted status) and rendered as a time line (§5).
#pragma once

#include <optional>
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
  /// Lint policy. `lint.translation` is ignored: lint checks the one
  /// translation made with `translation` that exploration uses. A conclusive
  /// static verdict on a translatable model replaces exploration and
  /// reports 0 states (DESIGN.md §9).
  lint::Options lint;

  // --- warm re-exploration (DESIGN.md §12) -----------------------------
  /// When non-null and exploration stops on a budget without reaching a
  /// verdict, a serialized versa checkpoint (translated module + BFS
  /// wavefront) is written here so a later run can resume it.
  std::string* checkpoint_out = nullptr;
  /// When non-null and non-empty, try to restore this checkpoint and
  /// resume: lint, translation and the already-explored prefix are all
  /// skipped. Any validation failure falls back to a cold run (the reason
  /// lands in AnalysisResult::diagnostics).
  const std::string* resume_checkpoint = nullptr;
  /// Cache key recorded inside a captured checkpoint (instance fingerprint
  /// + options hash at the service layer; informational elsewhere).
  std::string checkpoint_key;
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

struct AnalysisResult {
  bool ok = false;            // analysis ran and produced a result (possibly
                              // partial); false only for Outcome::Error
  bool schedulable = false;   // deadlock-free <=> schedulable (§5)
  bool exhaustive = false;    // full state space explored (or stopped at a
                              // deadlock, which is conclusive)
  Outcome outcome = Outcome::Error;
  /// Why exploration stopped early (None unless outcome == Inconclusive).
  util::StopReason stop_reason = util::StopReason::None;
  /// Trace recording was dropped to relieve memory pressure; the verdict
  /// stands but no counterexample timeline is available.
  bool trace_dropped = false;
  /// Deepest fully-expanded BFS level ("no deadlock within depth d").
  std::uint64_t depth = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::optional<FailingScenario> scenario;
  std::vector<translate::TranslatedThread> threads;
  std::string diagnostics;  // rendered front-end/translation messages

  /// Present when AnalyzerOptions::run_lint was set.
  std::optional<lint::Report> lint_report;
  /// Check id(s) that decided the verdict statically (empty when the
  /// verdict came from exploration).
  std::string decided_by;

  // Warm re-exploration observability. These live OUTSIDE the canonical
  // result JSON (core/result_json.cpp) on purpose: a resumed run that
  // reaches a verdict must render byte-identically to a cold run.
  bool resumed = false;                  // run continued a checkpoint
  std::uint64_t resumed_from_depth = 0;  // wavefront depth at resume
  std::uint64_t resumed_from_states = 0;
  bool checkpoint_captured = false;      // checkpoint_out was filled

  // Exploration observability (see versa::ExploreResult).
  double explore_ms = 0;
  std::uint64_t peak_frontier = 0;
  std::uint64_t fans_computed = 0;   // successor fans computed
  std::uint64_t memo_hits = 0;       // fans served from a memo cache
  /// Hot-loop fan sizes over the expanded states: successor labels built
  /// before preemption, and targets kept after it (acsr::Semantics::Stats).
  std::uint64_t fan_candidates = 0;
  std::uint64_t fan_kept = 0;

  /// Engine that produced (or would have produced) the verdict: never
  /// Auto. Part of the canonical result JSON (as to_string(engine)) — the
  /// cross-engine agreement suite normalizes it away alongside the other
  /// engine-observability counters.
  Engine engine = Engine::Enumerative;

  // Symbolic-engine observability (DESIGN.md §16). Zero on enumerative
  // runs. `states`/`transitions`/`depth`/`peak_frontier` above are reused
  // for the class graph; these add what has no enumerative analogue.
  std::uint64_t zone_subsumptions = 0;  // classes pruned by zone inclusion
  std::uint64_t dbm_dimension = 0;      // clocks + reference row
  /// Symbolic counterexample: the event trail to the missed deadline
  /// ("t=40ms: deadline check", ...). The enumerative engine renders its
  /// counterexample as `scenario` instead — a symbolic run has no quantum
  /// timeline to draw.
  std::vector<std::string> symbolic_witness;

  std::string summary() const;
};

/// Analyze a parsed-and-instantiated model.
AnalysisResult analyze_instance(const aadl::InstanceModel& instance,
                                const AnalyzerOptions& opts = {});

/// Parse AADL source, instantiate `root_impl`, analyze.
AnalysisResult analyze_source(std::string_view aadl_source,
                              std::string_view root_impl,
                              const AnalyzerOptions& opts = {});

/// Read a file and analyze. Errors land in `diagnostics`.
AnalysisResult analyze_file(const std::string& path,
                            std::string_view root_impl,
                            const AnalyzerOptions& opts = {});

/// Render the translated ACSR module for a model (the paper's "input of the
/// VERSA tool"); empty string + diagnostics on error.
std::string render_acsr(std::string_view aadl_source,
                        std::string_view root_impl, std::string& diagnostics,
                        const translate::TranslateOptions& opts = {});

}  // namespace aadlsched::core
