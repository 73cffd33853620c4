// Reduction-layer gating (DESIGN.md §13). Two families of guarantees:
//
//   * Inertness on the default translation: for EVERY shipped example
//     model, analyzed with reductions on vs. off, the canonical result
//     JSON is byte-identical (explore_ms aside). Under ordered instants the
//     translator's symmetry groups are empty by construction, so the layer
//     must not perturb a single byte — counts included.
//
//   * Real reductions under uniform instants: translated with
//     ordered_instants off, the symmetric fixture's interchangeable
//     threads form a group, the engine reaches the same verdict as a
//     reduction-free run, and the representative count is at least 2x
//     smaller (the bench_reduction acceptance bar, pinned here as a
//     functional test).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/analyzer.hpp"
#include "core/result_json.hpp"

namespace {

using namespace aadlsched;

struct ExampleModel {
  const char* file;
  const char* root;
};

/// Every shipped example model. The DirectoryIsFullyCovered test fails when
/// a new model lands without being added here — the equivalence matrix must
/// stay exhaustive.
constexpr ExampleModel kExamples[] = {
    {"cruise_control.aadl", "CruiseControlSystem.impl"},
    {"avionics.aadl", "Avionics.impl"},
    {"storm.aadl", "Storm.impl"},
    {"symmetric.aadl", "Symmetric.impl"},
    {"quantum_ladder.aadl", "QuantumLadder.impl"},
    {"slow_periodic.aadl", "SlowPeriodic.impl"},
    {"dual_rig.aadl", "DualRig.impl"},
};

std::string models_dir() { return AADLSCHED_MODELS_DIR; }

std::string read_model(const std::string& file) {
  std::ifstream in(models_dir() + "/" + file);
  EXPECT_TRUE(in.good()) << "cannot open " << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

core::AnalyzerOptions base_options() {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;  // the comparison targets exploration, not lint
  // storm.aadl is deliberately explosive; a bounded Inconclusive result is
  // still a canonical result object and must be equally reduction-invariant.
  opts.exploration.max_states = 5'000;
  return opts;
}

std::string normalize_explore_ms(std::string json) {
  const std::string key = "\"explore_ms\": ";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return json;
  auto end = pos + key.size();
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  json.replace(pos + key.size(), end - (pos + key.size()), "X");
  return json;
}

TEST(ReductionEquivalence, DirectoryIsFullyCovered) {
  std::set<std::string> listed;
  for (const ExampleModel& m : kExamples) listed.insert(m.file);
  for (const auto& entry :
       std::filesystem::directory_iterator(models_dir())) {
    if (entry.path().extension() != ".aadl") continue;
    EXPECT_TRUE(listed.count(entry.path().filename().string()))
        << entry.path().filename()
        << " is not in the reduction-equivalence matrix; add it to "
           "kExamples";
  }
}

/// Reductions on vs off, one model per iteration.
TEST(ReductionEquivalence, ResultJsonIsByteIdenticalOnEveryExampleModel) {
  for (const ExampleModel& m : kExamples) {
    const std::string src = read_model(m.file);
    const core::AnalyzerOptions on = base_options();
    core::AnalyzerOptions off = on;
    off.exploration.reduction = {false, false};

    const auto r_on = core::analyze_source(src, m.root, on);
    const auto r_off = core::analyze_source(src, m.root, off);
    ASSERT_TRUE(r_on.ok) << m.file << ": " << r_on.diagnostics;
    EXPECT_EQ(r_on.outcome, r_off.outcome) << m.file;
    EXPECT_EQ(r_on.states, r_off.states) << m.file;
    EXPECT_EQ(r_on.transitions, r_off.transitions) << m.file;
    EXPECT_EQ(normalize_explore_ms(core::render_result_json(r_on)),
              normalize_explore_ms(core::render_result_json(r_off)))
        << m.file;
    // Default translation: no groups can form, the layer reports inert.
    EXPECT_EQ(r_on.symmetry_groups, 0u) << m.file;
    EXPECT_EQ(r_on.states_saved, 0u) << m.file;
  }
}

// --- real reductions under uniform instants -----------------------------

core::AnalyzerOptions uniform_options() {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.translation.ordered_instants = false;
  opts.run_lint = false;
  return opts;
}

TEST(ReductionEffect, SymmetricFixtureCollapsesByAtLeast2x) {
  const std::string src = read_model("symmetric.aadl");

  core::AnalyzerOptions off = uniform_options();
  off.exploration.reduction = {false, false};
  const auto raw = core::analyze_source(src, "Symmetric.impl", off);
  ASSERT_TRUE(raw.ok) << raw.diagnostics;
  ASSERT_EQ(raw.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(raw.symmetry_groups, 0u);

  const auto reduced =
      core::analyze_source(src, "Symmetric.impl", uniform_options());
  ASSERT_TRUE(reduced.ok) << reduced.diagnostics;
  EXPECT_EQ(reduced.outcome, raw.outcome);
  EXPECT_EQ(reduced.symmetry_groups, 1u);
  EXPECT_GT(reduced.states_saved, 0u);
  EXPECT_GE(raw.states, 2 * reduced.states)
      << "expected >= 2x state reduction (raw " << raw.states
      << ", reduced " << reduced.states << ")";
  EXPECT_NE(reduced.summary().find("symmetry groups: 1"), std::string::npos);
  EXPECT_NE(reduced.summary().find("states saved:"), std::string::npos);
}

}  // namespace
