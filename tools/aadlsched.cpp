// aadlsched — command-line front end, the role of the paper's OSATE plugin.
//
//   aadlsched <model.aadl>... <Root.impl> [options]
//   aadlsched --batch <list-file> [options]
//
//   --quantum <ms>         scheduling quantum (default 1 ms)
//   --acsr                 dump the ACSR module and initial state; exit
//   --classical            also run RTA / EDF analysis / the simulator on
//                          the extracted task view
//   --latency <src> <sink> <ms>
//                          add an end-to-end latency requirement (§5
//                          observer); repeatable
//   --late-completion      use the literal Fig. 5 execution-time model
//   --max-states <n>       exploration bound (default 5,000,000)
//   --deadline-ms <n>      wall-clock budget per analysis; an expired run
//                          reports INCONCLUSIVE (deadline) with partial
//                          stats instead of hanging
//   --memory-budget-mb <n> approximate memory ceiling per analysis; the
//                          engine degrades (drops trace recording) before
//                          giving up
//   --engine <e>           exploration engine: enumerative (default,
//                          the paper's unit-quantum BFS), symbolic (the
//                          quantum-independent state-class engine,
//                          DESIGN.md §16 — errors out on models outside
//                          its fragment), or auto (symbolic when
//                          applicable, enumerative fallback otherwise)
//   --batch <file>         analyze every model listed in <file> (one
//                          "<model.aadl>... <Root.impl>" per line, '#'
//                          comments); each entry is isolated — a crashing
//                          or unparsable model becomes an error record in
//                          the JSON report, not a dead run
//   --batch-workers <n>    concurrent batch entries (default 1)
//   --keep-going           batch exit-code policy: model errors are
//                          recorded but do not poison the exit code
//   --report <file>        write the batch JSON report here (default
//                          stdout)
//   --lint                 run the static checks only (aadllint) and exit;
//                          0 = clean, 1 = error-severity findings
//   --lint-format <f>      lint report format: text (default) or json
//   --explain <id>         print the catalogue entry for one lint check
//                          (id like AL013 or name like exact-rta): tier,
//                          verdict contract, and the soundness rationale;
//                          then exit (no model needed)
//   --no-lint              skip the lint pre-pass before exploration
//   --json                 print the canonical result object
//                          (core::render_result_json, DESIGN.md §11)
//                          instead of the human summary
//   --connect <host:port>  submit the analysis to a running aadlschedd
//                          instead of exploring locally; prints the result
//                          object (implies --json), same exit codes. With
//                          --stats / --shutdown, query or stop the daemon.
//                          Local-only flags (--latency, --acsr,
//                          --classical, --lint) are a usage error with
//                          --connect.
//   --no-cache             (with --connect) force a fresh exploration,
//                          bypassing the daemon's result cache
//   --connect-timeout-ms <n>
//                          (with --connect) connect deadline per attempt
//                          (default 2000; 0 = OS default)
//   --io-timeout-ms <n>    (with --connect) send/receive deadline per
//                          request (default 0 = none — explorations can
//                          legitimately run long)
//   --connect-retries <n>  (with --connect) transport-failure retries
//                          (connection refused, timeout, truncated
//                          response) with exponential backoff + jitter
//                          before giving up (default 3; 0 = fail fast)
//
// SIGINT flips the cooperative CancelToken: the run stops at the next
// budget check and still prints the partial summary (exit 3). A second
// SIGINT hard-exits.
//
// Exit code: 0 schedulable, 1 not schedulable, 2 usage/front-end error,
// 3 inconclusive (budget/cancellation truncated the exploration),
// 4 daemon unreachable (--connect transport failure after all retries —
// distinct from 2 so scripts can tell "restart the daemon" from "fix the
// model").
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "core/taskset_extract.hpp"
#include "lint/lint.hpp"
#include "sched/analysis.hpp"
#include "sched/simulator.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/tcp.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"
#include "util/string_utils.hpp"
#include "versa/sweep.hpp"

namespace {

using namespace aadlsched;

int usage() {
  std::cerr <<
      "usage: aadlsched <model.aadl>... <Root.impl> [analysis options]\n"
      "                 [--acsr] [--classical] [--latency src sink ms]\n"
      "                 [--lint] [--lint-format text|json] [--explain AL0NN]\n"
      "                 [--json]\n"
      "       aadlsched --batch <list> [--batch-workers n] [--keep-going]\n"
      "                 [--report file] [analysis options]\n"
      "       aadlsched --connect <host:port> <model.aadl>... <Root.impl>\n"
      "                 [--no-cache] [--connect-timeout-ms n]\n"
      "                 [--io-timeout-ms n] [--connect-retries n]\n"
      "                 [analysis options]\n"
      "       aadlsched --connect <host:port> --stats | --shutdown\n"
      "analysis options:\n";
  for (const server::OptionSpec& spec : server::kOptionTable)
    std::cerr << "  " << spec.flag << ' ' << spec.unit << '\n';
  return 2;
}

using util::parse_option;

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- cooperative cancellation (SIGINT) ---------------------------------

util::CancelToken g_cancel;
std::atomic<int> g_sigint_count{0};

void on_sigint(int) {
  // First ^C: ask the analysis to stop at its next budget check; the
  // partial summary still prints. Second ^C: the user means it.
  if (g_sigint_count.fetch_add(1, std::memory_order_relaxed) > 0)
    std::_Exit(130);
  g_cancel.cancel();
}

int exit_code_for(core::Outcome o) {
  switch (o) {
    case core::Outcome::Schedulable: return 0;
    case core::Outcome::NotSchedulable: return 1;
    case core::Outcome::Error: return 2;
    case core::Outcome::Inconclusive: return 3;
  }
  return 2;
}

// --- batch mode ---------------------------------------------------------

struct BatchEntry {
  std::vector<std::string> files;
  std::string root;
};

/// One "<model.aadl>... <Root.impl>" per line; blank lines and '#' comments
/// are skipped.
std::optional<std::vector<BatchEntry>> read_batch_list(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open batch list '" << path << "'\n";
    return std::nullopt;
  }
  std::vector<BatchEntry> entries;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    BatchEntry e;
    std::string tok;
    while (ls >> tok) {
      if (tok.find(".aadl") != std::string::npos)
        e.files.push_back(tok);
      else
        e.root = tok;
    }
    if (e.files.empty() && e.root.empty()) continue;  // blank/comment line
    if (e.files.empty() || e.root.empty()) {
      std::cerr << path << ":" << lineno
                << ": batch entry needs model file(s) and a root "
                   "implementation\n";
      return std::nullopt;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

/// The front end of every local run: read all `files` (multi-file packages
/// supported) and load `root` from them. On failure returns null with the
/// text to report in `error`.
std::unique_ptr<core::LoadedModel> load_files(
    const std::vector<std::string>& files, const std::string& root,
    util::DiagnosticEngine& diags, std::string& error) {
  std::vector<std::string> texts;
  for (const std::string& f : files) {
    auto text = read_file(f);
    if (!text) {
      error = "cannot open '" + f + "'\n";
      return nullptr;
    }
    texts.push_back(std::move(*text));
  }
  const std::vector<std::string_view> sources(texts.begin(), texts.end());
  auto loaded = core::load_model(sources, root, diags);
  if (!loaded) error = diags.render_all();
  return loaded;
}

/// Parse + instantiate + analyze one entry. Never throws for front-end
/// problems (they land in diagnostics with Outcome::Error); exceptions that
/// do escape are caught by the sweep isolation layer.
core::AnalysisResult analyze_entry(const BatchEntry& entry,
                                   const core::AnalyzerOptions& opts) {
  core::AnalysisResult result;
  util::DiagnosticEngine diags(entry.files.front());
  const auto loaded =
      load_files(entry.files, entry.root, diags, result.diagnostics);
  if (!loaded) return result;
  result = core::analyze_instance(*loaded->instance, opts);
  result.diagnostics = diags.render_all() + result.diagnostics;
  return result;
}

/// The report is a wrapper around per-model canonical result objects: each
/// entry is "files"/"root" plus exactly the fields `aadlsched --json` and
/// the daemon emit (core::append_result_fields — one serializer, three
/// surfaces).
std::string render_batch_json(const std::vector<BatchEntry>& entries,
                              const std::vector<core::AnalysisResult>& results,
                              bool keep_going, int exit_code) {
  std::ostringstream os;
  std::size_t counts[4] = {0, 0, 0, 0};
  os << "{\n  \"models\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const core::AnalysisResult& r = results[i];
    ++counts[static_cast<std::size_t>(r.outcome)];
    os << (i ? ",\n    " : "\n    ");
    util::JsonWriter w;
    w.begin_object();
    w.key("files").begin_array();
    for (const std::string& f : entries[i].files) w.value(f);
    w.end_array();
    w.key("root").value(entries[i].root);
    core::append_result_fields(w, r);
    w.end_object();
    os << std::move(w).str();
  }
  os << (entries.empty() ? "]" : "\n  ]") << ",\n";
  os << "  \"totals\": {\"schedulable\": "
     << counts[static_cast<std::size_t>(core::Outcome::Schedulable)]
     << ", \"not_schedulable\": "
     << counts[static_cast<std::size_t>(core::Outcome::NotSchedulable)]
     << ", \"inconclusive\": "
     << counts[static_cast<std::size_t>(core::Outcome::Inconclusive)]
     << ", \"error\": "
     << counts[static_cast<std::size_t>(core::Outcome::Error)] << "},\n";
  os << "  \"keep_going\": " << (keep_going ? "true" : "false") << ",\n";
  os << "  \"exit_code\": " << exit_code << "\n}\n";
  return os.str();
}

// --- client mode (--connect) --------------------------------------------
// The retry/backoff transport lives in server/client.hpp (shared with
// aadlsched-exp); this file only owns the CLI surface: argument plumbing,
// stderr messages, and exit codes.

/// Exit code for "daemon unreachable": every transport-level failure
/// (refused, timeout, truncated response) after retries are exhausted.
/// Distinct from 2 (usage/front-end/analysis error) so orchestration
/// scripts can distinguish "restart the daemon" from "fix the model".
constexpr int kExitUnreachable = 4;

/// Submit the analysis to a running aadlschedd. The daemon returns the
/// canonical result object verbatim, so output and exit codes match a
/// local `aadlsched --json` run byte for byte. Transport failures are
/// retried with exponential backoff + jitter (a daemon mid-restart is the
/// common case); a daemon that *answers* with an error is never retried —
/// that is an analysis/protocol failure, not unreachability.
int run_connect(const std::string& endpoint,
                const std::vector<std::string>& files, const std::string& root,
                const server::RequestOptions& options, bool no_cache,
                bool want_stats, bool want_shutdown,
                const server::RetryPolicy& policy) {
  std::string host;
  std::uint16_t port = 0;
  if (!server::parse_endpoint(endpoint, host, port)) {
    std::cerr << "invalid --connect endpoint '" << endpoint
              << "' (expected HOST:PORT)\n";
    return 2;
  }

  server::Request req;
  if (want_stats) {
    req.op = server::Op::Stats;
  } else if (want_shutdown) {
    req.op = server::Op::Shutdown;
  } else {
    req.op = server::Op::Analyze;
    req.root = root;
    req.no_cache = no_cache;
    req.options = options;
    // The daemon parses one text; AADL packages concatenate cleanly, so a
    // multi-file model becomes one request body.
    for (const std::string& f : files) {
      const auto text = read_file(f);
      if (!text) {
        std::cerr << "cannot open '" << f << "'\n";
        return 2;
      }
      req.model += *text;
      if (!req.model.empty() && req.model.back() != '\n') req.model += '\n';
    }
  }

  std::string error;
  const auto resp = server::request_with_retry(
      host, port, req, policy, error,
      [&](unsigned attempt, unsigned retries, double delay_ms,
          const std::string& why) {
        std::cerr << "daemon unreachable (" << why << "); retry " << attempt
                  << "/" << retries << " in " << static_cast<long>(delay_ms)
                  << " ms\n";
      });
  if (!resp) {
    std::cerr << "daemon unreachable after " << (policy.retries + 1)
              << " attempt(s): " << error << "\n";
    return kExitUnreachable;
  }
  if (!resp->ok) {
    std::cerr << "daemon error: " << resp->error << "\n";
    return 2;
  }

  if (want_stats) {
    std::cout << resp->stats_json << "\n";
    return 0;
  }
  if (want_shutdown) {
    std::cout << "daemon shutdown requested\n";
    return 0;
  }
  std::cerr << "served in " << resp->served_ms << " ms ("
            << (resp->cached ? ("cached: " + resp->cache_tier)
                             : std::string("explored"))
            << ", fingerprint " << resp->fingerprint << ")\n";
  std::cout << resp->result_json << "\n";
  return exit_code_for(resp->outcome);
}

int run_batch(const std::string& list_path, std::size_t batch_workers,
              bool keep_going, const std::string& report_path,
              const core::AnalyzerOptions& opts) {
  const auto entries = read_batch_list(list_path);
  if (!entries) return 2;

  std::vector<core::AnalysisResult> results(entries->size());
  const versa::SweepReport sweep = versa::parallel_sweep(
      entries->size(),
      [&](std::size_t i) { results[i] = analyze_entry((*entries)[i], opts); },
      batch_workers);
  // A job that escaped with an exception produced no result; record the
  // error so the report stays complete (one poisoned model, full batch).
  for (const versa::SweepFailure& f : sweep.failures) {
    results[f.job] = core::AnalysisResult{};
    results[f.job].diagnostics = "analysis aborted: " + f.error + "\n";
  }

  // Exit-code policy. Model errors poison the exit code unless
  // --keep-going; otherwise the worst analysis outcome wins.
  bool any_error = false, any_notsched = false, any_inconclusive = false;
  for (const core::AnalysisResult& r : results) {
    any_error |= r.outcome == core::Outcome::Error;
    any_notsched |= r.outcome == core::Outcome::NotSchedulable;
    any_inconclusive |= r.outcome == core::Outcome::Inconclusive;
  }
  int code = 0;
  if (any_error && !keep_going)
    code = 2;
  else if (any_notsched)
    code = 1;
  else if (any_inconclusive)
    code = 3;

  const std::string json =
      render_batch_json(*entries, results, keep_going, code);
  if (report_path.empty()) {
    std::cout << json;
  } else {
    std::ofstream out(report_path);
    if (!out) {
      std::cerr << "cannot write report '" << report_path << "'\n";
      return 2;
    }
    out << json;
    std::cout << "batch report written to " << report_path << "\n";
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aadlsched;

  std::vector<std::string> files;
  std::string root;
  server::RequestOptions request;
  std::vector<translate::LatencySpec> latency;
  bool dump_acsr = false;
  bool classical = false;
  bool lint_only = false;
  bool lint_json = false;
  std::string batch_list;
  std::string report_path;
  std::size_t batch_workers = 1;
  bool keep_going = false;
  bool json_out = false;
  std::string connect_endpoint;
  bool connect_stats = false;
  bool connect_shutdown = false;
  bool no_cache = false;
  server::RetryPolicy connect_policy;
  bool connect_policy_set = false;
  std::string explain_id;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const server::OptionSpec* knob = server::find_flag(arg)) {
      const bool takes_value = !knob->is_switch();
      if (takes_value && i + 1 >= argc) return usage();
      if (!server::parse_flag(*knob, takes_value ? argv[++i] : "", request))
        return usage();
    } else if (arg == "--acsr") {
      dump_acsr = true;
    } else if (arg == "--classical") {
      classical = true;
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_list = argv[++i];
    } else if (arg == "--batch-workers" && i + 1 < argc) {
      const auto n = parse_option("--batch-workers", argv[++i], 0, 65536);
      if (!n) return usage();
      batch_workers = static_cast<std::size_t>(*n);
    } else if (arg == "--keep-going") {
      keep_going = true;
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--latency" && i + 3 < argc) {
      translate::LatencySpec spec;
      spec.source_path = argv[++i];
      spec.sink_path = argv[++i];
      const auto ms = parse_option("--latency", argv[++i], 1, 1'000'000'000);
      if (!ms) return usage();
      spec.max_latency_ns = *ms * 1'000'000;
      latency.push_back(std::move(spec));
    } else if (arg == "--json") {
      json_out = true;
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_endpoint = argv[++i];
    } else if (arg == "--stats") {
      connect_stats = true;
    } else if (arg == "--shutdown") {
      connect_shutdown = true;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
      const auto n = parse_option("--connect-timeout-ms", argv[++i], 0,
                                  1'000'000'000);
      if (!n) return usage();
      connect_policy.connect_timeout_ms = static_cast<double>(*n);
      connect_policy_set = true;
    } else if (arg == "--io-timeout-ms" && i + 1 < argc) {
      const auto n = parse_option("--io-timeout-ms", argv[++i], 0,
                                  1'000'000'000);
      if (!n) return usage();
      connect_policy.io_timeout_ms = static_cast<double>(*n);
      connect_policy_set = true;
    } else if (arg == "--connect-retries" && i + 1 < argc) {
      const auto n = parse_option("--connect-retries", argv[++i], 0, 100);
      if (!n) return usage();
      connect_policy.retries = static_cast<unsigned>(*n);
      connect_policy_set = true;
    } else if (arg == "--explain" && i + 1 < argc) {
      explain_id = argv[++i];
    } else if (arg == "--lint") {
      lint_only = true;
    } else if (arg == "--lint-format" && i + 1 < argc) {
      const std::string fmt = argv[++i];
      if (fmt == "json") {
        lint_json = true;
      } else if (fmt == "text") {
        lint_json = false;
      } else {
        std::cerr << "unknown lint format '" << fmt << "'\n";
        return usage();
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    } else if (arg.find(".aadl") != std::string::npos) {
      files.push_back(arg);
    } else {
      root = arg;
    }
  }

  if (!explain_id.empty()) {
    const lint::Pass* pass = lint::Registry::builtin().find(explain_id);
    if (!pass) {
      std::cerr << "unknown lint check '" << explain_id
                << "' (ids run AL001..; try --lint-format json for the "
                   "full catalogue)\n";
      return 2;
    }
    const lint::CheckInfo& info = pass->info();
    std::cout << info.id << "  " << info.name << "\n"
              << "  tier:     " << lint::to_string(info.tier) << "\n"
              << "  contract: " << info.contract << "\n"
              << "  summary:  " << info.summary << "\n";
    if (!info.rationale.empty())
      std::cout << "\n  " << info.rationale << "\n";
    return 0;
  }

  // Cooperative cancellation: exploration polls the token every budget
  // check, so ^C yields the partial summary instead of discarding work.
  std::signal(SIGINT, on_sigint);

  if (!connect_endpoint.empty()) {
    if (!batch_list.empty()) {
      std::cerr << "--connect and --batch are mutually exclusive\n";
      return usage();
    }
    // The wire carries only the options table: a daemon run would silently
    // ignore these.
    const std::pair<bool, const char*> local_only[] = {
        {!latency.empty(), "--latency"},
        {dump_acsr, "--acsr"},
        {classical, "--classical"},
        {lint_only, "--lint"}};
    for (const auto& [given, flag] : local_only) {
      if (given) {
        std::cerr << flag << " is local-only; run without --connect\n";
        return usage();
      }
    }
    if (connect_stats || connect_shutdown) {
      if (!files.empty() || !root.empty()) return usage();
    } else if (files.empty() || root.empty()) {
      return usage();
    }
    return run_connect(connect_endpoint, files, root, request, no_cache,
                       connect_stats, connect_shutdown, connect_policy);
  }
  if (connect_stats || connect_shutdown || no_cache || connect_policy_set) {
    std::cerr << "--stats/--shutdown/--no-cache/--connect-timeout-ms/"
                 "--io-timeout-ms/--connect-retries require --connect\n";
    return usage();
  }

  core::AnalyzerOptions opts = server::to_analyzer_options(request);
  opts.translation.latency_specs = std::move(latency);
  opts.exploration.budget.cancel = &g_cancel;

  if (!batch_list.empty()) {
    if (!files.empty() || !root.empty()) {
      std::cerr << "--batch takes its models from the list file\n";
      return usage();
    }
    return run_batch(batch_list, batch_workers, keep_going, report_path,
                     opts);
  }
  if (files.empty() || root.empty()) return usage();

  util::DiagnosticEngine diags(files.front());
  std::string front_end_error;
  const auto loaded = load_files(files, root, diags, front_end_error);
  if (!loaded) {
    std::cerr << front_end_error;
    return 2;
  }
  const aadl::InstanceModel& instance = *loaded->instance;

  if (lint_only) {
    lint::Options lopts;
    lopts.translation = opts.translation;
    const lint::Report report = lint::run(instance, lopts);
    std::cout << (lint_json ? report.render_json() : report.render_text());
    return report.errors() == 0 ? 0 : 1;
  }

  if (dump_acsr) {
    const std::string acsr =
        core::render_acsr(instance, opts.translation, diags);
    if (acsr.empty()) {
      std::cerr << diags.render_all();
      return 2;
    }
    std::cout << acsr;
    return 0;
  }

  if (classical) {
    util::DiagnosticEngine ediags("extract");
    const auto extracted = core::extract_taskset(
        instance, opts.translation.quantum_ns, ediags);
    if (!extracted) {
      std::cerr << ediags.render_all();
      return 2;
    }
    std::cout << "classical task view"
              << (extracted->lossy
                      ? " (approximate: model has event/bus features)"
                      : "")
              << ":\n";
    for (std::size_t cpu = 0; cpu < extracted->processor_paths.size();
         ++cpu) {
      const sched::TaskSet on =
          extracted->tasks.on_processor(static_cast<int>(cpu));
      std::cout << "  " << extracted->processor_paths[cpu] << " ("
                << aadl::to_string(extracted->protocols[cpu])
                << "), U = " << on.utilization() << "\n";
      const bool edf =
          extracted->protocols[cpu] == aadl::SchedulingProtocol::Edf ||
          extracted->protocols[cpu] == aadl::SchedulingProtocol::Llf;
      if (edf) {
        const auto v = sched::edf_demand_analysis(on);
        std::cout << "    EDF demand analysis: "
                  << (v.verdict == sched::Verdict::Schedulable
                          ? "schedulable"
                          : "NOT schedulable")
                  << "\n";
      } else {
        const auto v = sched::response_time_analysis(on);
        std::cout << "    response-time analysis: "
                  << (v.verdict == sched::Verdict::Schedulable
                          ? "schedulable"
                          : "NOT schedulable")
                  << "\n";
      }
      sched::SimOptions so;
      so.policy = edf ? sched::SchedulingPolicy::Edf
                      : sched::SchedulingPolicy::FixedPriority;
      std::cout << "    hyperperiod simulation: "
                << (sched::simulate(on, so).schedulable
                        ? "schedulable"
                        : "NOT schedulable")
                << "\n";
    }
  }

  const core::AnalysisResult result = core::analyze_instance(instance, opts);
  if (!result.diagnostics.empty()) std::cerr << result.diagnostics;
  if (json_out) {
    std::cout << core::render_result_json(result) << "\n";
  } else {
    std::cout << result.summary() << "\n";
  }
  return exit_code_for(result.outcome);
}
