// Compact state storage (DESIGN.md §13): bytes per stored state of the
// explorer's hash-consed term tables, fan memo and visited set, on cruise
// control and on storm.aadl (bounded). BM_StormBytesPerState is the row
// tools/bench_diff.py gates as storm_bytes_per_state.
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"

namespace {

using namespace aadlsched;

std::string read_model(const char* file) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct Run {
  std::uint64_t states = 0;
  std::uint64_t memory_bytes = 0;
  double ms = 0;

  double bytes_per_state() const {
    return states ? static_cast<double>(memory_bytes) /
                        static_cast<double>(states)
                  : 0.0;
  }
};

/// The default translation at 1 ms, explored up to `max_states` (0 = the
/// explorer's default cap).
Run run_once(const std::string& src, const char* root,
             std::uint64_t max_states = 0) {
  Run out;
  util::DiagnosticEngine diags("bench.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, src, diags)) return out;
  auto inst = aadl::instantiate(model, root, diags);
  if (!inst || diags.has_errors()) return out;
  acsr::Context ctx;
  translate::TranslateOptions topts;
  topts.quantum_ns = 1'000'000;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) return out;

  versa::ExploreOptions eopts;
  if (max_states) eopts.max_states = max_states;
  acsr::Semantics sem(ctx);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = versa::explore(sem, tr->initial, eopts);
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  out.states = r.states;
  out.memory_bytes = r.approx_memory_bytes;
  return out;
}

void print_table() {
  bench::print_header(
      "Compact state storage",
      "bytes/state measures the term-table, fan-memo and visited-set "
      "representation (storm 20k-bound)");
  std::printf("%-20s %10s %12s %10s\n", "model", "states", "bytes/state",
              "time_ms");
  const struct {
    const char* file;
    const char* root;
    std::uint64_t bound;
  } kStorage[] = {
      {"cruise_control.aadl", "CruiseControlSystem.impl", 0},
      {"storm.aadl", "Storm.impl", 20'000},
  };
  for (const auto& m : kStorage) {
    const Run r = run_once(read_model(m.file), m.root, m.bound);
    std::printf("%-20s %10llu %12.1f %10.2f\n", m.file,
                static_cast<unsigned long long>(r.states),
                r.bytes_per_state(), r.ms);
  }
  std::printf("\n");
}

void BM_StormBytesPerState(benchmark::State& state) {
  const std::string src = read_model("storm.aadl");
  Run r;
  for (auto _ : state) {
    r = run_once(src, "Storm.impl", 20'000);
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(r.states);
  state.counters["bytes_per_state"] = r.bytes_per_state();
}
BENCHMARK(BM_StormBytesPerState);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
