// aadlsched-exp — fleet-scale experiment harness (EXPERIMENTS.md E15).
//
//   aadlsched-exp <spec.json> [options]
//
//   --out <file>          report path (default experiment_report.json)
//   --connect <host:port> submit every model to a running aadlschedd
//                         instead of analyzing in-process; the verdict
//                         data in the report is byte-identical either way
//   --connect-timeout-ms <n> / --io-timeout-ms <n> / --connect-retries <n>
//                         (with --connect) transport policy, as aadlsched
//   --workers <n>         fan-out concurrency (overrides the spec;
//                         0 = hardware concurrency)
//   --models-dir <dir>    also write every generated model
//                         (<name>-c<cell>-s<seed>.aadl) and its canonical
//                         result object (.result.json) under <dir>
//   --print               print the report to stdout as well
//   --quiet               suppress progress on stderr
//
// Exit codes: 0 = experiment completed (per-model analysis errors are
// *data* — they land in the report's outcome tallies, they do not fail the
// harness); 2 = usage / unreadable or invalid spec (e.g. an empty period
// set, which the workload generator rejects with a diagnostic); 4 = at
// least one model could not reach the daemon after all retries.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "server/tcp.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace aadlsched;

int usage() {
  std::cerr <<
      "usage: aadlsched-exp <spec.json> [--out file] [--connect host:port]\n"
      "                     [--connect-timeout-ms n] [--io-timeout-ms n]\n"
      "                     [--connect-retries n] [--workers n]\n"
      "                     [--models-dir dir] [--print] [--quiet]\n";
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

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  out << text;
  return out.good();
}

/// Regenerate and dump every model plus its result object. Generation is
/// deterministic, so re-rendering here reproduces exactly what the runner
/// submitted — no need to keep thousands of model texts in memory.
bool dump_models(const std::string& dir, const exp::ExperimentSpec& spec,
                 const exp::ExperimentResult& result) {
  ::mkdir(dir.c_str(), 0777);  // best-effort; the write below reports
  for (std::size_t ci = 0; ci < result.cells.size(); ++ci) {
    for (const exp::RunOutcome& run : result.cells[ci].runs) {
      if (!run.generated) continue;
      std::string error;
      const auto model = exp::render_model(spec, result.cells[ci].cell, ci,
                                           run.seed, error);
      if (!model) continue;  // was generable during the run; defensive
      const std::string stem = dir + "/" + spec.name + "-c" +
                               std::to_string(ci) + "-s" +
                               std::to_string(run.seed);
      if (!write_file(stem + ".aadl", *model)) {
        std::cerr << "cannot write '" << stem << ".aadl'\n";
        return false;
      }
      if (!run.result_json.empty() &&
          !write_file(stem + ".result.json", run.result_json + "\n")) {
        std::cerr << "cannot write '" << stem << ".result.json'\n";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path = "experiment_report.json";
  std::string connect_endpoint;
  std::string models_dir;
  server::RetryPolicy retry;
  bool retry_set = false;
  std::optional<std::size_t> workers_override;
  bool print_report = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_endpoint = argv[++i];
    } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
      const auto n =
          parse_option("--connect-timeout-ms", argv[++i], 0, 1'000'000'000);
      if (!n) return usage();
      retry.connect_timeout_ms = static_cast<double>(*n);
      retry_set = true;
    } else if (arg == "--io-timeout-ms" && i + 1 < argc) {
      const auto n =
          parse_option("--io-timeout-ms", argv[++i], 0, 1'000'000'000);
      if (!n) return usage();
      retry.io_timeout_ms = static_cast<double>(*n);
      retry_set = true;
    } else if (arg == "--connect-retries" && i + 1 < argc) {
      const auto n = parse_option("--connect-retries", argv[++i], 0, 100);
      if (!n) return usage();
      retry.retries = static_cast<unsigned>(*n);
      retry_set = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      const auto n = parse_option("--workers", argv[++i], 0, 65536);
      if (!n) return usage();
      workers_override = static_cast<std::size_t>(*n);
    } else if (arg == "--models-dir" && i + 1 < argc) {
      models_dir = argv[++i];
    } else if (arg == "--print") {
      print_report = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      std::cerr << "unexpected argument '" << arg << "'\n";
      return usage();
    }
  }
  if (spec_path.empty()) return usage();
  if (retry_set && connect_endpoint.empty()) {
    std::cerr << "--connect-timeout-ms/--io-timeout-ms/--connect-retries "
                 "require --connect\n";
    return usage();
  }

  const auto text = read_file(spec_path);
  if (!text) {
    std::cerr << "cannot open spec '" << spec_path << "'\n";
    return 2;
  }
  std::string error;
  auto spec = exp::parse_experiment_spec(*text, error);
  if (!spec) {
    std::cerr << spec_path << ": " << error << "\n";
    return 2;
  }
  if (workers_override) spec->workers = *workers_override;

  std::optional<exp::DaemonEndpoint> daemon;
  if (!connect_endpoint.empty()) {
    exp::DaemonEndpoint ep;
    if (!server::parse_endpoint(connect_endpoint, ep.host, ep.port)) {
      std::cerr << "invalid --connect endpoint '" << connect_endpoint
                << "' (expected HOST:PORT)\n";
      return 2;
    }
    ep.retry = retry;
    daemon = std::move(ep);
  }

  const std::size_t total =
      exp::expand_grid(*spec).size() * spec->seed_count;
  if (!quiet)
    std::cerr << "experiment '" << spec->name << "': " << total
              << " models, backend "
              << (daemon ? "daemon " + connect_endpoint
                         : std::string("in-process"))
              << "\n";
  const std::size_t step = total >= 20 ? total / 10 : total;
  const auto progress = [&](std::size_t done, std::size_t n) {
    if (!quiet && (done % step == 0 || done == n))
      std::cerr << "  " << done << "/" << n << " analyzed\n";
  };

  const exp::ExperimentResult result =
      exp::run_experiment(*spec, daemon, progress);
  const std::string report = exp::render_report(*spec, result);

  if (!write_file(out_path, report)) {
    std::cerr << "cannot write report '" << out_path << "'\n";
    return 2;
  }
  if (!quiet)
    std::cerr << "report written to " << out_path << " ("
              << result.total_runs << " runs, "
              << result.transport_failures << " transport failures, "
              << static_cast<long>(result.total_ms) << " ms)\n";
  if (print_report) std::cout << report;

  if (!models_dir.empty() && !dump_models(models_dir, *spec, result))
    return 2;

  return result.transport_failures > 0 ? 4 : 0;
}
