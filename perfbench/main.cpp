// perfbench: the aadlsched benchmark program (see README.md).
//
//   perfbench --workload verify_cruise|sweep_fleet|serve_edit --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--wrong-oracle]
//
// Prints context lines, a metric table and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any operation failed or disagreed with its oracle, naming the model on
// stderr; 2 on a usage or set-up error, with no JSON line.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload verify_cruise|sweep_fleet|"
               "serve_edit --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--wrong-oracle]\n");
}

std::string self_dir() {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path().string();
}

void print(const perfbench::Result& r, const perfbench::Options& o,
           bool trace) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, trace ? 1 : 0);
  for (const std::string& line : r.context) std::printf("  %s\n", line.c_str());
  std::printf("  %-28s %16s %16s  %s\n", "metric", "corrected", "raw", "unit");
  for (const perfbench::Metric& m : r.metrics) {
    char raw[32] = "";
    if (m.raw >= 0) std::snprintf(raw, sizeof raw, "%.6g", m.raw);
    std::printf("  %-28s %16.6g %16s  %s\n", m.name.c_str(), m.value, raw,
                m.unit.c_str());
  }
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--wrong-oracle") {
      o.wrong_oracle = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--work-dir" && has_value) {
      o.work_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (!perfbench::known_workload(o.workload) || !(o.seconds > 0) ||
      (trace != 0 && trace != 1) || o.work_dir.empty()) {
    usage();
    return 2;
  }
  o.ref_exe = self_dir() + "/perfbench_ref";

  try {
    std::filesystem::create_directories(o.work_dir);
    const perfbench::Result r =
        trace ? perfbench::run_traced(o) : perfbench::run_untraced(o);
    print(r, o, trace == 1);
    return r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
