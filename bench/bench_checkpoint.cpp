// Warm re-exploration experiment (DESIGN.md §12, EXPERIMENTS.md E10): what
// does resuming a budget-bound run from a checkpoint buy over re-exploring
// cold? The table bounds cruise_control, resumes it, and compares the
// resumed wall-clock against a cold full run (the resumed run must also
// reach the identical verdict and state count — determinism is asserted,
// not assumed). The BM_ timings cover the checkpoint mechanics themselves:
// serialize, digest-verified restore into a translation, and a resumed vs
// cold exploration of cruise control at 1 ms, where exploration dominates
// and the checkpoint holds 40,000 of its 65,098 states.
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "versa/checkpoint.hpp"

namespace {

using namespace aadlsched;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const std::string& cruise_text() {
  static const std::string text =
      slurp(std::string(AADLSCHED_MODELS_DIR) + "/cruise_control.aadl");
  return text;
}

constexpr const char* kCruiseRoot = "CruiseControlSystem.impl";

core::AnalyzerOptions base_options() {
  core::AnalyzerOptions opts;
  opts.run_lint = false;  // measure exploration, not the static screen
  opts.translation.quantum_ns = 1'000'000;  // the CLI's 1 ms default
  return opts;
}

double run_ms(const std::string& model, const char* root,
              const core::AnalyzerOptions& opts, core::AnalysisResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  core::AnalysisResult r = core::analyze_source(model, root, opts);
  const auto t1 = std::chrono::steady_clock::now();
  if (out) *out = std::move(r);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void print_table() {
  bench::print_header(
      "warm re-exploration: cold full run vs checkpoint + resume",
      "resuming a budget-bound run re-explores only the remaining space, "
      "so bound_ms + resume_ms ~= cold_ms and resume_ms < cold_ms");

  core::AnalysisResult cold_r;
  const double cold = run_ms(cruise_text(), kCruiseRoot, base_options(), &cold_r);

  // Bound the run at roughly half the space, capture, resume.
  core::AnalyzerOptions bound = base_options();
  bound.exploration.max_states = cold_r.states / 2;
  std::string blob;
  bound.checkpoint_out = &blob;
  core::AnalysisResult bound_r;
  const double bound_ms = run_ms(cruise_text(), kCruiseRoot, bound, &bound_r);

  const std::size_t ckpt_bytes = blob.size();  // resuming consumes blob
  core::AnalyzerOptions warm = base_options();
  warm.resume_checkpoint = &blob;
  core::AnalysisResult warm_r;
  const double resume_ms = run_ms(cruise_text(), kCruiseRoot, warm, &warm_r);

  const bool identical = warm_r.stats.resumed &&
                         warm_r.outcome == cold_r.outcome &&
                         warm_r.states == cold_r.states &&
                         warm_r.transitions == cold_r.transitions;
  std::printf("# %-22s %10s %10s %10s %12s %10s\n", "model", "cold_ms",
              "bound_ms", "resume_ms", "ckpt_bytes", "identical");
  std::printf("# %-22s %10.1f %10.1f %10.1f %12zu %10s\n",
              "cruise_control.aadl", cold, bound_ms, resume_ms, ckpt_bytes,
              identical ? "yes" : "NO");
  if (!identical)
    std::fprintf(stderr,
                 "warm verdict diverged from cold: resumed=%d states %llu vs "
                 "%llu\n",
                 warm_r.stats.resumed ? 1 : 0,
                 static_cast<unsigned long long>(warm_r.states),
                 static_cast<unsigned long long>(cold_r.states));
}

/// A cruise control checkpoint bound at 40,000 states, captured once and
/// shared by the BM_ bodies.
const std::string& captured() {
  static const std::string blob = [] {
    std::string out;
    core::AnalyzerOptions bound = base_options();
    bound.exploration.max_states = 40'000;
    bound.checkpoint_out = &out;
    run_ms(cruise_text(), kCruiseRoot, bound, nullptr);
    return out;
  }();
  return blob;
}

/// The caller's side of a resume: its own translation of cruise control,
/// into which a checkpoint is restored.
struct Fresh {
  acsr::Context ctx;
  acsr::TermId initial = acsr::kInvalidTerm;
};

std::unique_ptr<Fresh> translate_cruise() {
  auto out = std::make_unique<Fresh>();
  util::DiagnosticEngine diags("bench");
  aadl::Model model;
  if (!aadl::parse_aadl(model, cruise_text(), diags)) return out;
  const auto instance = aadl::instantiate(model, kCruiseRoot, diags);
  if (!instance) return out;
  if (const auto tr = translate::translate(out->ctx, *instance, diags,
                                           base_options().translation))
    out->initial = tr->initial;
  return out;
}

void BM_CheckpointParse(benchmark::State& state) {
  const std::string& blob = captured();
  for (auto _ : state) {
    // Only the restore is timed: each iteration restores into a fresh
    // translation, made (and the previous one freed) with the timer paused.
    state.PauseTiming();
    auto fresh = translate_cruise();
    state.ResumeTiming();
    std::string error;
    benchmark::DoNotOptimize(
        versa::parse_checkpoint(fresh->ctx, fresh->initial, blob, error));
    state.PauseTiming();
    fresh.reset();
    state.ResumeTiming();
  }
  state.counters["bytes"] = static_cast<double>(blob.size());
}
BENCHMARK(BM_CheckpointParse)->Unit(benchmark::kMillisecond);

void BM_CheckpointSerialize(benchmark::State& state) {
  const auto fresh = translate_cruise();
  std::string error;
  const auto restored = versa::parse_checkpoint(fresh->ctx, fresh->initial,
                                                captured(), error);
  if (!restored) {
    state.SkipWithError("checkpoint restore failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        versa::serialize_checkpoint(fresh->ctx, *restored));
  }
}
BENCHMARK(BM_CheckpointSerialize)->Unit(benchmark::kMillisecond);

void BM_ColdFullExploration(benchmark::State& state) {
  for (auto _ : state) {
    core::AnalysisResult r;
    run_ms(cruise_text(), kCruiseRoot, base_options(), &r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ColdFullExploration)->Unit(benchmark::kMillisecond);

void BM_ResumedExploration(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::string blob = captured();  // resuming consumes its copy
    state.ResumeTiming();
    core::AnalyzerOptions warm = base_options();
    warm.resume_checkpoint = &blob;
    core::AnalysisResult r;
    run_ms(cruise_text(), kCruiseRoot, warm, &r);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ResumedExploration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
