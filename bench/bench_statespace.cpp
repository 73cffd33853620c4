// E7 — exploration cost and the design-choice ablations of DESIGN.md §6:
//   * states and wall time vs number of threads (the scaling the paper's
//     future-work section worries about);
//   * successor-fan memoization on/off;
//   * ordered instants (canonical dispatch ordering) on/off;
// plus the successor layer alone: one prioritized() call on cruise
// control's largest 2 ms fan, served from the shape memo
// (BM_PrioritizeLargestFan) and folded in full by a memo-free Semantics
// (BM_FoldLargestFan), and one call per reachable 2 ms state
// (BM_ExpandCruise2ms).
#include <chrono>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "bench_common.hpp"

namespace {

using namespace aadlsched;

sched::TaskSet n_tasks(std::size_t n) {
  // Harmonic-ish periods, utilization ~0.75, deterministic.
  sched::TaskSet ts;
  const sched::Time periods[] = {4, 8, 8, 16, 16, 16, 16, 32};
  for (std::size_t i = 0; i < n; ++i) {
    sched::Task t;
    t.name = "t";
    t.name += std::to_string(i);
    t.period = t.deadline = periods[i % 8];
    t.wcet = t.bcet = std::max<sched::Time>(1, t.period / 8);
    ts.tasks.push_back(t);
  }
  sched::assign_rate_monotonic(ts);
  return ts;
}

struct Run {
  std::uint64_t states = 0;
  std::uint64_t computed = 0;
  std::uint64_t memo_hits = 0;
  double ms = 0;
  bool schedulable = false;
};

Run run_once(const sched::TaskSet& ts, bool memoize, bool ordered) {
  Run out;
  util::DiagnosticEngine diags;
  aadl::Model model;
  const std::string src =
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority);
  aadl::parse_aadl(model, src, diags);
  auto inst = aadl::instantiate(model, "Root.impl", diags);
  acsr::Context ctx;
  translate::TranslateOptions topts;
  topts.quantum_ns = 1'000'000;
  topts.ordered_instants = ordered;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) return out;
  acsr::Semantics sem(ctx, memoize);
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = versa::explore(sem, tr->initial);
  out.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  out.states = r.states;
  out.computed = sem.stats().computed;
  out.memo_hits = sem.stats().memo_hits;
  out.schedulable = r.schedulable();
  return out;
}

void print_table() {
  bench::print_header("E7: exploration scaling and ablations",
                      "states grow with thread count; memoization and "
                      "ordered instants are the two big levers");
  std::printf("scaling (RM, U~0.75, harmonic periods):\n");
  std::printf("%8s %10s %12s %10s\n", "threads", "states", "time_ms",
              "verdict");
  for (std::size_t n : {2u, 4u, 6u, 8u}) {
    const Run r = run_once(n_tasks(n), true, true);
    std::printf("%8zu %10llu %12.2f %10s\n", n,
                static_cast<unsigned long long>(r.states), r.ms,
                r.schedulable ? "ok" : "miss");
  }

  std::printf("\nablation (6 threads):\n");
  std::printf("%-28s %10s %12s %12s %10s\n", "variant", "states",
              "fan_comps", "memo_hits", "time_ms");
  const sched::TaskSet ts = n_tasks(6);
  const struct {
    const char* name;
    bool memo;
    bool ordered;
  } variants[] = {
      {"memo + ordered (default)", true, true},
      {"no memoization", false, true},
      {"no ordered instants", true, false},
      {"neither", false, false},
  };
  for (const auto& v : variants) {
    const Run r = run_once(ts, v.memo, v.ordered);
    std::printf("%-28s %10llu %12llu %12llu %10.2f\n", v.name,
                static_cast<unsigned long long>(r.states),
                static_cast<unsigned long long>(r.computed),
                static_cast<unsigned long long>(r.memo_hits), r.ms);
  }
  std::printf("\n");
}

void BM_Scaling(benchmark::State& state) {
  const sched::TaskSet ts = n_tasks(static_cast<std::size_t>(state.range(0)));
  std::uint64_t states = 0;
  for (auto _ : state) {
    const Run r = run_once(ts, true, true);
    states = r.states;
    benchmark::DoNotOptimize(r);
  }
  state.counters["states"] = static_cast<double>(states);
}
BENCHMARK(BM_Scaling)->Arg(2)->Arg(4)->Arg(6);

void BM_NoMemoization(benchmark::State& state) {
  const sched::TaskSet ts = n_tasks(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(ts, false, true));
  }
}
BENCHMARK(BM_NoMemoization);

void BM_WithMemoization(benchmark::State& state) {
  const sched::TaskSet ts = n_tasks(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(ts, true, true));
  }
}
BENCHMARK(BM_WithMemoization);

/// Cruise control at 2 ms, translated once and explored once (warm fan
/// memo and hash-cons tables), with every reachable state in BFS order and
/// the state whose prioritized fan has the most candidates (the first one
/// where every thread is ready at once).
struct Cruise2ms {
  acsr::Context ctx;
  std::optional<acsr::Semantics> sem;
  std::vector<acsr::TermId> states;
  acsr::TermId largest = acsr::kNil;
  std::uint64_t candidates = 0;

  Cruise2ms() {
    std::ifstream in(std::string(AADLSCHED_MODELS_DIR) +
                     "/cruise_control.aadl");
    std::ostringstream src;
    src << in.rdbuf();
    util::DiagnosticEngine diags("cruise_control.aadl");
    aadl::Model model;
    aadl::parse_aadl(model, src.str(), diags);
    auto inst = aadl::instantiate(model, "CruiseControlSystem.impl", diags);
    translate::TranslateOptions topts;
    topts.quantum_ns = 2'000'000;
    auto tr = inst ? translate::translate(ctx, *inst, diags, topts)
                   : std::nullopt;
    if (!tr) {
      std::fprintf(stderr, "%s", diags.render_all().c_str());
      return;
    }
    sem.emplace(ctx);
    std::unordered_set<acsr::TermId> seen{tr->initial};
    states.push_back(tr->initial);
    std::vector<acsr::Transition> fan;
    for (std::size_t i = 0; i < states.size(); ++i) {
      const acsr::TermId s = states[i];
      const std::uint64_t before = sem->stats().candidates;
      sem->prioritized(s, fan);
      if (sem->stats().candidates - before > candidates) {
        candidates = sem->stats().candidates - before;
        largest = s;
      }
      for (const acsr::Transition& t : fan)
        if (seen.insert(t.target).second) states.push_back(t.target);
    }
  }
};

Cruise2ms& cruise_2ms() {
  static Cruise2ms fixture;
  return fixture;
}

void BM_PrioritizeLargestFan(benchmark::State& state) {
  Cruise2ms& fixture = cruise_2ms();
  if (!fixture.sem) {
    state.SkipWithError("cruise_control.aadl did not translate");
    return;
  }
  acsr::Semantics& sem = *fixture.sem;
  std::vector<acsr::Transition> out;
  const acsr::Semantics::Stats before = sem.stats();
  for (auto _ : state) {
    sem.prioritized(fixture.largest, out);
    benchmark::DoNotOptimize(out.data());
  }
  const double calls = static_cast<double>(state.iterations());
  state.counters["candidates"] = static_cast<double>(fixture.candidates);
  state.counters["kept"] = static_cast<double>(out.size());
  state.counters["preempt_checks_per_call"] =
      static_cast<double>(sem.stats().preempt_checks -
                          before.preempt_checks) /
      calls;
  state.counters["shape_hits_per_call"] =
      static_cast<double>(sem.stats().shape_hits - before.shape_hits) / calls;
}
BENCHMARK(BM_PrioritizeLargestFan)->Unit(benchmark::kMicrosecond);

/// The miss path on the same state: a memo-free Semantics over the warmed
/// Context runs Par1/2/4, the Par3 fold and the skyline on every call (and
/// recomputes the twelve child fans, which the memoized path looks up).
void BM_FoldLargestFan(benchmark::State& state) {
  Cruise2ms& fixture = cruise_2ms();
  if (!fixture.sem) {
    state.SkipWithError("cruise_control.aadl did not translate");
    return;
  }
  acsr::Semantics sem(fixture.ctx, /*memoize=*/false);
  std::vector<acsr::Transition> out;
  for (auto _ : state) {
    sem.prioritized(fixture.largest, out);
    benchmark::DoNotOptimize(out.data());
  }
  const double calls = static_cast<double>(state.iterations());
  state.counters["kept"] = static_cast<double>(out.size());
  state.counters["fold_partials_per_call"] =
      static_cast<double>(sem.stats().fold_partials) / calls;
  state.counters["preempt_checks_per_call"] =
      static_cast<double>(sem.stats().preempt_checks) / calls;
}
BENCHMARK(BM_FoldLargestFan)->Unit(benchmark::kMicrosecond);

/// The explorer's hot loop without the explorer: one prioritized() per
/// reachable state of cruise control at 2 ms, on a Context a full
/// exploration has already warmed (so no child fan is new to the fan memo
/// and every state's shape is in the shape memo).
void BM_ExpandCruise2ms(benchmark::State& state) {
  Cruise2ms& fixture = cruise_2ms();
  if (!fixture.sem) {
    state.SkipWithError("cruise_control.aadl did not translate");
    return;
  }
  acsr::Semantics& sem = *fixture.sem;
  std::vector<acsr::Transition> out;
  const acsr::Semantics::Stats before = sem.stats();
  for (auto _ : state) {
    for (const acsr::TermId s : fixture.states) {
      sem.prioritized(s, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  const double expanded = static_cast<double>(state.iterations()) *
                          static_cast<double>(fixture.states.size());
  state.counters["states"] = static_cast<double>(fixture.states.size());
  state.counters["states_per_s"] = benchmark::Counter(
      expanded, benchmark::Counter::kIsRate);
  state.counters["fold_partials_per_state"] =
      static_cast<double>(sem.stats().fold_partials - before.fold_partials) /
      expanded;
  state.counters["shape_hits_per_state"] =
      static_cast<double>(sem.stats().shape_hits - before.shape_hits) /
      expanded;
}
BENCHMARK(BM_ExpandCruise2ms)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
