// Shared helpers for the experiment benches. Each bench binary prints the
// table/series of its EXPERIMENTS.md row first (deterministic, seeded
// workloads), then runs its google-benchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "acsr/semantics.hpp"
#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/taskset_aadl.hpp"
#include "sched/analysis.hpp"
#include "sched/simulator.hpp"
#include "sched/workload.hpp"
#include "translate/translator.hpp"
#include "versa/explorer.hpp"

namespace aadlsched::bench {

struct PipelineResult {
  bool ok = false;
  versa::ExploreResult explored;
  acsr::Semantics::Stats sem_stats;
  std::size_t definitions = 0;
};

/// Full pipeline: AADL source -> instance -> ACSR -> exploration.
inline PipelineResult run_pipeline(
    const std::string& aadl_source, std::string_view root,
    const translate::TranslateOptions& topts = {},
    const versa::ExploreOptions& eopts = {}) {
  PipelineResult out;
  util::DiagnosticEngine diags("bench.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, aadl_source, diags)) return out;
  auto inst = aadl::instantiate(model, root, diags);
  if (!inst || diags.has_errors()) return out;
  acsr::Context ctx;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) {
    std::fprintf(stderr, "%s", diags.render_all().c_str());
    return out;
  }
  acsr::Semantics sem(ctx);
  out.explored = versa::explore(sem, tr->initial, eopts);
  out.sem_stats = sem.stats();
  out.definitions = ctx.definition_count();
  out.ok = true;
  return out;
}

/// Pipeline on a classical task set.
inline PipelineResult run_taskset(const sched::TaskSet& ts,
                                  sched::SchedulingPolicy policy,
                                  const translate::TranslateOptions& base =
                                      {}) {
  translate::TranslateOptions topts = base;
  topts.quantum_ns = 1'000'000;
  return run_pipeline(core::taskset_to_aadl(ts, policy), "Root.impl", topts);
}

inline sched::TaskSet workload(std::uint64_t seed, std::size_t n, double u,
                               double deadline_fraction = 1.0) {
  sched::WorkloadSpec spec;
  spec.task_count = n;
  spec.total_utilization = u;
  spec.deadline_fraction = deadline_fraction;
  spec.periods = {3, 4, 5, 6, 8, 10};
  return sched::generate_workload(spec, seed);
}

inline void print_header(const char* experiment, const char* claim) {
  std::printf("### %s\n# %s\n", experiment, claim);
}

/// Shared main for every bench binary: translates the repo-level flags into
/// google-benchmark flags so tools/run_benches.sh and CI drive all binaries
/// through one interface.
///
///   --json <out>   write the google-benchmark JSON report to <out>
///   --smoke        CI smoke mode: skip the experiment table (it reruns the
///                  full workloads) and cut benchmark repetitions to ~10 ms
///                  unless the caller passes its own --benchmark_min_time
///
/// Everything else is forwarded to google-benchmark untouched.
inline int run_main(int argc, char** argv, void (*print_table)()) {
  bool smoke = false;
  std::string json_out;
  std::vector<std::string> forwarded = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc)
      json_out = argv[++i];
    else if (arg == "--smoke")
      smoke = true;
    else
      forwarded.push_back(arg);
  }
  if (!json_out.empty()) {
    forwarded.push_back("--benchmark_out=" + json_out);
    forwarded.push_back("--benchmark_out_format=json");
  }
  // Right after argv[0], so a --benchmark_min_time the caller passes wins.
  if (smoke)
    forwarded.insert(forwarded.begin() + 1, "--benchmark_min_time=0.01");

  if (!smoke && print_table) print_table();

  std::vector<char*> fargv;
  for (std::string& s : forwarded) fargv.push_back(s.data());
  int fargc = static_cast<int>(fargv.size());
  fargv.push_back(nullptr);
  benchmark::Initialize(&fargc, fargv.data());
  if (benchmark::ReportUnrecognizedArguments(fargc, fargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace aadlsched::bench
