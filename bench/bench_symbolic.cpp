// E14 — the engine ablation (DESIGN.md §16): symbolic state classes vs
// unit-quantum enumeration, on the two fixtures built to pin each side of
// the contrast.
//
//   * quantum_ladder.aadl across the quantum ladder 10/5/2/1 ms: the
//     enumerator's verdict flips with the quantum (conservative rounding
//     spuriously rejects at 10 and 5 ms), while the symbolic verdict and
//     zone count are invariant — the engine never quantizes.
//   * slow_periodic.aadl under a 2 s wall-clock budget: the 252 s
//     hyperperiod leaves the 1 ms enumerator inconclusive at the budget,
//     while the state-class engine closes the graph in milliseconds —
//     symbolic analysis decides models the enumerator cannot afford.
//
// The timed series gate two derived metrics in tools/bench_diff.py:
// symbolic_zones_per_sec (class-graph throughput) and
// symbolic_decide_rate (the fragment must keep conclusively deciding its
// portfolio — an engine that starts refusing or truncating shows up here).
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "versa/symbolic.hpp"

namespace {

using namespace aadlsched;

std::string read_model(const char* file) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

core::AnalyzerOptions engine_options(core::Engine engine,
                                     std::int64_t quantum_ns = 1'000'000) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = quantum_ns;
  opts.run_lint = false;  // the verdict must come from the engines
  opts.engine = engine;
  return opts;
}

const char* verdict(const core::AnalysisResult& r) {
  return core::to_string(r.outcome).data();
}

void print_table() {
  bench::print_header(
      "E14: quantum invariance — symbolic state classes vs enumeration",
      "the enumerator's verdict depends on the quantum (conservative "
      "rounding); the state-class engine decides once, exactly, at any "
      "quantum");

  const std::string ladder = read_model("quantum_ladder.aadl");
  std::printf(
      "quantum_ladder.aadl (12 + 8 ms filling a 20 ms period exactly):\n");
  std::printf("%-10s %12s %16s %8s %18s\n", "quantum_ms", "enum_states",
              "enum_verdict", "zones", "symbolic_verdict");
  for (const std::int64_t q_ms : {10, 5, 2, 1}) {
    const auto en = core::analyze_source(
        ladder, "QuantumLadder.impl",
        engine_options(core::Engine::Enumerative, q_ms * 1'000'000));
    const auto sy = core::analyze_source(
        ladder, "QuantumLadder.impl",
        engine_options(core::Engine::Symbolic, q_ms * 1'000'000));
    std::printf("%-10lld %12llu %16s %8llu %18s\n",
                static_cast<long long>(q_ms),
                static_cast<unsigned long long>(en.states), verdict(en),
                static_cast<unsigned long long>(sy.states), verdict(sy));
  }

  std::printf(
      "\nslow_periodic.aadl (hyperperiod 252 s) under a 2 s wall-clock "
      "budget:\n");
  core::AnalyzerOptions en_opts = engine_options(core::Engine::Enumerative);
  en_opts.exploration.budget.deadline_ms = 2000;
  const auto en = core::analyze_source(read_model("slow_periodic.aadl"),
                                       "SlowPeriodic.impl", en_opts);
  std::printf("  enumerative @ 1 ms: %s (%s) after %llu states, %.0f ms\n",
              verdict(en), util::to_string(en.stop_reason).data(),
              static_cast<unsigned long long>(en.states), en.explore_ms);
  core::AnalyzerOptions sy_opts = engine_options(core::Engine::Symbolic);
  sy_opts.exploration.budget.deadline_ms = 2000;
  const auto sy = core::analyze_source(read_model("slow_periodic.aadl"),
                                       "SlowPeriodic.impl", sy_opts);
  std::printf("  symbolic          : %s, %llu zones, %.1f ms\n\n",
              verdict(sy), static_cast<unsigned long long>(sy.states),
              sy.explore_ms);
}

/// Class-graph throughput on the long-hyperperiod fixture — the model the
/// engine exists for. zones feeds the symbolic_zones_per_sec gate.
void BM_SymbolicSlowPeriodic(benchmark::State& state) {
  const std::string src = read_model("slow_periodic.aadl");
  core::AnalysisResult r;
  for (auto _ : state) {
    r = core::analyze_source(src, "SlowPeriodic.impl",
                             engine_options(core::Engine::Symbolic));
    benchmark::DoNotOptimize(r);
  }
  state.counters["zones"] = static_cast<double>(r.states);
  state.counters["subsumptions"] =
      static_cast<double>(r.stats.zone_subsumptions);
  state.counters["schedulable"] =
      r.outcome == core::Outcome::Schedulable ? 1.0 : 0.0;
}
BENCHMARK(BM_SymbolicSlowPeriodic);

/// The fragment portfolio: every applicable example model plus a spread of
/// generated rate-monotonic tasksets across the schedulability boundary.
/// decide_rate = conclusively decided fraction; anything below 1.0 means
/// the engine refused or truncated a model it must own.
void BM_SymbolicDecidePortfolio(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> portfolio = {
      {read_model("quantum_ladder.aadl"), "QuantumLadder.impl"},
      {read_model("slow_periodic.aadl"), "SlowPeriodic.impl"},
      {read_model("dual_rig.aadl"), "DualRig.impl"},
  };
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    sched::TaskSet ts = bench::workload(seed, 3, 0.6 + 0.05 * seed);
    sched::assign_rate_monotonic(ts);
    portfolio.emplace_back(
        core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority),
        "Root.impl");
  }

  double decided = 0;
  double zones = 0;
  for (auto _ : state) {
    decided = zones = 0;
    for (const auto& [src, root] : portfolio) {
      const auto r = core::analyze_source(
          src, root, engine_options(core::Engine::Symbolic));
      if (r.outcome == core::Outcome::Schedulable ||
          r.outcome == core::Outcome::NotSchedulable)
        ++decided;
      zones += static_cast<double>(r.states);
    }
    benchmark::DoNotOptimize(decided);
  }
  state.counters["decide_rate"] =
      decided / static_cast<double>(portfolio.size());
  state.counters["zones"] = zones;
}
BENCHMARK(BM_SymbolicDecidePortfolio);

/// The enumerative control on the same ladder model at 1 ms — the
/// apples-to-apples cost the symbolic engine displaces.
void BM_EnumerativeQuantumLadder(benchmark::State& state) {
  const std::string src = read_model("quantum_ladder.aadl");
  core::AnalysisResult r;
  for (auto _ : state) {
    r = core::analyze_source(src, "QuantumLadder.impl",
                             engine_options(core::Engine::Enumerative));
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(r.states);
}
BENCHMARK(BM_EnumerativeQuantumLadder);

void BM_SymbolicQuantumLadder(benchmark::State& state) {
  const std::string src = read_model("quantum_ladder.aadl");
  core::AnalysisResult r;
  for (auto _ : state) {
    r = core::analyze_source(src, "QuantumLadder.impl",
                             engine_options(core::Engine::Symbolic));
    benchmark::DoNotOptimize(r);
  }
  state.counters["zones"] = static_cast<double>(r.states);
}
BENCHMARK(BM_SymbolicQuantumLadder);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
