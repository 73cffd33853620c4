// F1 — the paper's running example (Fig. 1): analyze the cruise-control
// system end to end. Prints the per-thread table and the verdict the
// paper's plugin would show, then times every pipeline stage.
#include <fstream>
#include <sstream>

#include "bench_common.hpp"

namespace {

using namespace aadlsched;

std::string model_source() {
  std::ifstream in(AADLSCHED_MODELS_DIR "/cruise_control.aadl");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const std::string& source() {
  static const std::string src = model_source();
  return src;
}

translate::TranslateOptions ten_ms() {
  translate::TranslateOptions t;
  t.quantum_ns = 10'000'000;
  return t;
}

void print_table() {
  bench::print_header(
      "F1: cruise-control system (Fig. 1)",
      "6 threads / 6 dispatchers / 0 queues; schedulable under RM");
  core::AnalyzerOptions opts;
  opts.translation = ten_ms();
  const auto r =
      core::analyze_source(source(), "CruiseControlSystem.impl", opts);
  std::printf("%-22s %6s %6s %6s %6s %6s\n", "thread", "cmin", "cmax", "T",
              "D", "prio");
  for (const auto& t : r.threads)
    std::printf("%-22s %6lld %6lld %6lld %6lld %6d\n", t.path.c_str(),
                static_cast<long long>(t.cmin),
                static_cast<long long>(t.cmax),
                static_cast<long long>(t.period),
                static_cast<long long>(t.deadline), t.static_priority);
  std::printf("verdict: %s, states=%llu transitions=%llu\n\n",
              r.outcome == core::Outcome::Schedulable ? "SCHEDULABLE"
                                                      : "NOT SCHEDULABLE",
              static_cast<unsigned long long>(r.states),
              static_cast<unsigned long long>(r.transitions));
}

void BM_ParseOnly(benchmark::State& state) {
  for (auto _ : state) {
    aadl::Model model;
    util::DiagnosticEngine diags;
    benchmark::DoNotOptimize(aadl::parse_aadl(model, source(), diags));
  }
}
BENCHMARK(BM_ParseOnly);

void BM_ParseInstantiate(benchmark::State& state) {
  for (auto _ : state) {
    aadl::Model model;
    util::DiagnosticEngine diags;
    aadl::parse_aadl(model, source(), diags);
    auto inst = aadl::instantiate(model, "CruiseControlSystem.impl", diags);
    benchmark::DoNotOptimize(inst);
  }
}
BENCHMARK(BM_ParseInstantiate);

void BM_Translate(benchmark::State& state) {
  aadl::Model model;
  util::DiagnosticEngine diags;
  aadl::parse_aadl(model, source(), diags);
  auto inst = aadl::instantiate(model, "CruiseControlSystem.impl", diags);
  for (auto _ : state) {
    acsr::Context ctx;
    auto tr = translate::translate(ctx, *inst, diags, ten_ms());
    benchmark::DoNotOptimize(tr);
  }
}
BENCHMARK(BM_Translate);

void BM_EndToEnd(benchmark::State& state) {
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto r = bench::run_pipeline(source(), "CruiseControlSystem.impl",
                                       ten_ms());
    states = r.explored.states;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_EndToEnd);

void BM_EndToEndFineQuantum(benchmark::State& state) {
  translate::TranslateOptions t = ten_ms();
  t.quantum_ns = 5'000'000;
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto r =
        bench::run_pipeline(source(), "CruiseControlSystem.impl", t);
    states = r.explored.states;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_EndToEndFineQuantum);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
