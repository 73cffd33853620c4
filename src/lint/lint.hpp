// aadllint — static analysis over AADL instance models (the production front
// door: answer cheap questions before paying for translation and
// state-space exploration).
//
// A lint run walks a Subject (the instance model and its screen view) with
// every registered Pass. No pass reads ACSR: the run only needs to know
// whether the model passes translate::validate (Report::translated).
// Passes emit structured Findings with stable check IDs (AL001..) through a
// Sink, and screening passes may additionally record *conclusive*
// schedulability verdicts:
//
//   * NotSchedulable  — a guaranteed counterexample exists (per-processor
//     utilization > 1 over periodic threads, or a periodic thread whose
//     quantized WCET exceeds its deadline). Exploration would find the same
//     deadlock; core::Analyzer can skip it.
//   * Schedulable     — a sufficient analytical bound holds on every
//     thread-bearing processor AND the model is pure enough that the
//     classical task abstraction is exact (no event chains, no bus
//     contention, no latency observers). Exploration would agree.
//
// The screening-vs-exploration contract is documented in DESIGN.md §9.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aadl/instance.hpp"
#include "lint/screen_view.hpp"
#include "translate/translator.hpp"
#include "util/diagnostics.hpp"

namespace aadlsched::lint {

enum class Tier : std::uint8_t {
  ModelHygiene,        // instance-model structural/property checks
  Screening,           // fast analytical verdicts reusing src/sched
  AcsrWellFormedness,  // livelocks the ACSR network would have (AL012)
};

std::string_view to_string(Tier t);

/// Version of the built-in pass catalogue and its verdict semantics. Bumped
/// when a change can alter a result the service caches, so results computed
/// by an older catalogue are not served as fresh (the daemon folds this into
/// its options cache key).
///   v1: AL001..AL012 (PR 2/3).
///   v2: exact screens AL013/AL014, blocking-aware AL015, hazard AL016,
///       machine-checkable certificates. AL010/AL011 later left the
///       catalogue without a bump: they decided nothing and fired on no
///       translatable model, so no cached result changed.
inline constexpr int kLintPassVersion = 2;

/// Shape version of Report::render_json() output. Additions are
/// backward-compatible and do not bump it; renames/removals do.
inline constexpr int kLintSchemaVersion = 1;

struct CheckInfo {
  std::string_view id;       // stable, e.g. "AL001"
  std::string_view name;     // kebab-case, e.g. "unbound-thread"
  std::string_view summary;  // one line for the catalogue
  Tier tier = Tier::ModelHygiene;
  /// What the pass' verdicts mean: "advisory" (findings only),
  /// "sufficient" (may vouch Schedulable, never refutes), or "exact"
  /// (conclusive either way within its stated fragment).
  std::string_view contract = "advisory";
  /// Why the verdict agrees with exploration (the DESIGN.md §9/§14
  /// soundness argument, one paragraph, for --explain).
  std::string_view rationale = "";
};

struct Finding {
  std::string check_id;
  std::string check_name;
  util::Severity severity = util::Severity::Warning;
  util::SourceLoc loc;
  std::string component;  // instance path / connection / definition name
  std::string message;

  std::string render() const;  // "error: [AL001 unbound-thread] path: msg"
};

enum class StaticVerdict : std::uint8_t { None, Schedulable, NotSchedulable };

std::string_view to_string(StaticVerdict v);

/// A sufficient per-processor claim from a screening pass; the driver
/// combines them into a whole-model Schedulable verdict only when every
/// thread-bearing processor is vouched for (see finalize logic in lint.cpp).
struct ProcessorVerdict {
  std::string processor;  // instance path
  std::string check_id;
  bool schedulable = false;
  std::string detail;
};

/// One task row of a static certificate, in the translator's quantized
/// units and effective (post-protocol) priorities — exactly the parameters
/// exploration itself would use, so a checker needs no AADL frontend.
struct CertTask {
  std::string path;
  std::int64_t wcet_q = 0;
  std::int64_t period_q = 0;
  std::int64_t deadline_q = 0;
  int priority = 0;              // effective fixed priority (0 for EDF)
  std::int64_t blocking_q = 0;   // B_i blocking term (AL015)
  std::int64_t response_q = -1;  // claimed worst-case response (schedulable)
};

/// Machine-checkable witness backing a conclusive static claim. Kinds:
///   "fp-response-bound"     — R_i is a fixed point of the RTA recurrence
///                             (equal-priority tasks counted as
///                             interference) and R_i <= D_i for every task
///   "fp-overload-witness"   — demand on [0, window_q] by the witness task
///                             and its higher-priority tasks is demand_q >
///                             window_q (window_q = the task's deadline)
///   "edf-demand"            — dbf(d) <= d for every absolute deadline
///                             d <= window_q (the QPA check bound)
///   "edf-overflow-witness"  — dbf(window_q) = demand_q > window_q
///   "utilization-overload"  — sum wcet_q/period_q > 1 over the tasks
///   "hyperbolic-bound"      — prod(wcet_q + period_q) <= 2 prod(period_q)
///   "edf-utilization"       — sum wcet_q/period_q <= 1 (implicit deadlines)
///   "wcet-exceeds-deadline" — single task with wcet_q > deadline_q
struct StaticCertificate {
  std::string check_id;   // emitting pass
  std::string kind;
  std::string processor;  // instance path ("" for single-thread witnesses)
  bool schedulable = false;
  std::vector<CertTask> tasks;
  std::int64_t window_q = -1;  // checked horizon / witness window
  std::int64_t demand_q = -1;  // demand over the witness window
};

struct Report {
  std::vector<Finding> findings;
  /// Witnesses for every conclusive or per-processor claim made by the
  /// screening tier; each is independently checkable even when no
  /// whole-model verdict was promoted.
  std::vector<StaticCertificate> certificates;
  StaticVerdict verdict = StaticVerdict::None;
  std::string decided_by;  // check id(s) that produced the verdict
  std::string verdict_detail;
  std::vector<ProcessorVerdict> processor_verdicts;
  /// Does the model pass translate::validate? core::Analyzer only honors
  /// conclusive verdicts on translatable models (otherwise exploration
  /// could not have produced a verdict to agree with).
  bool translated = false;

  std::size_t count(util::Severity sev) const;
  std::size_t errors() const { return count(util::Severity::Error); }
  std::size_t warnings() const { return count(util::Severity::Warning); }

  std::string render_text() const;
  /// Machine-readable report (stable shape; the CI-gate hook, ROADMAP).
  std::string render_json() const;
};

/// What a pass may look at: the instance model, the quantum from
/// Options::translation, and the screen view of `instance` at that quantum.
struct Subject {
  const aadl::InstanceModel& instance;
  std::int64_t quantum_ns = 0;
  std::vector<ScreenCpu> screen = {};
};

class Sink {
 public:
  Sink(Report& report, util::DiagnosticEngine* mirror)
      : report_(report), mirror_(mirror) {}

  void set_current(const CheckInfo* info) { current_ = info; }

  void report(util::Severity sev, util::SourceLoc loc, std::string component,
              std::string message);
  void note(std::string component, std::string message) {
    report(util::Severity::Note, {}, std::move(component), std::move(message));
  }
  void warning(std::string component, std::string message) {
    report(util::Severity::Warning, {}, std::move(component),
           std::move(message));
  }
  void error(std::string component, std::string message) {
    report(util::Severity::Error, {}, std::move(component),
           std::move(message));
  }

  /// Record a conclusive whole-model verdict. NotSchedulable wins over
  /// Schedulable; the first pass to decide names `decided_by`.
  void conclusive(StaticVerdict v, std::string detail);
  /// Record a sufficient per-processor schedulability claim.
  void processor_verdict(std::string processor, bool schedulable,
                         std::string detail);
  /// Attach a machine-checkable witness (check_id is filled in from the
  /// running pass).
  void certificate(StaticCertificate cert);

 private:
  Report& report_;
  util::DiagnosticEngine* mirror_;
  const CheckInfo* current_ = nullptr;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const CheckInfo& info() const = 0;
  virtual void run(const Subject& subject, Sink& sink) const = 0;
};

class Registry {
 public:
  void add(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>>& passes() const { return passes_; }
  /// Look up by check id ("AL007") or name ("utilization-overload").
  const Pass* find(std::string_view id_or_name) const;

  /// The built-in pass catalogue (constructed once, immutable).
  static const Registry& builtin();

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

struct Options {
  /// Quantum and latency observers the screening passes mirror; lint::run
  /// also validates the model's translation with them (Report::translated).
  translate::TranslateOptions translation;
  /// Optional mirror: findings are also reported here as
  /// "[AL001 unbound-thread] message".
  util::DiagnosticEngine* diags = nullptr;
};

/// Lint an instance model. Runs translate::validate on it (validation
/// diagnostics are discarded: the hygiene passes report the same
/// preconditions with check ids) to fill Report::translated.
Report run(const aadl::InstanceModel& instance, const Options& opts = {});

/// Lint an instance model whose translation the caller already validated
/// with `opts.translation`; `translated` is that validation's outcome.
Report run(const aadl::InstanceModel& instance, bool translated,
           const Options& opts);

}  // namespace aadlsched::lint
