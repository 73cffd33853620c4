// End-to-end reproduction tests for the paper's running example (Fig. 1):
// the cruise-control system analyzed through the full pipeline.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "acsr/parser.hpp"
#include "acsr/semantics.hpp"
#include "core/analyzer.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;
using namespace aadlsched::core;

namespace {

std::string model_source() {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) +
                   "/cruise_control.aadl");
  EXPECT_TRUE(in);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

AnalyzerOptions ten_ms() {
  AnalyzerOptions opts;
  opts.translation.quantum_ns = 10'000'000;
  return opts;
}

/// The `aadlsched --acsr` dump of the model at 10 ms.
std::string acsr_dump(util::DiagnosticEngine& diags) {
  const std::string text = model_source();
  const std::string_view source = text;
  const auto loaded =
      load_model({&source, 1}, "CruiseControlSystem.impl", diags);
  if (!loaded) return {};
  return render_acsr(*loaded->instance, ten_ms().translation, diags);
}

TEST(CruiseControl, IsSchedulable) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable) << r.summary();
  EXPECT_GT(r.states, 10u);
  ASSERT_EQ(r.threads.size(), 6u);
}

TEST(CruiseControl, RmPrioritiesFollowPeriods) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  ASSERT_NE(r.outcome, core::Outcome::Error);
  const auto prio = [&](std::string_view path) {
    for (const auto& t : r.threads)
      if (t.path == path) return t.static_priority;
    ADD_FAILURE() << "no thread " << path;
    return -1;
  };
  // On hci_processor: 50 ms threads above 100 ms threads.
  EXPECT_GT(prio("hci.buttonpanel"), prio("hci.drivermodelogic"));
  EXPECT_GT(prio("hci.refspeed"), prio("hci.instrumentpanel"));
  // On ccl_processor: cruise1 (50 ms) above cruise2 (100 ms).
  EXPECT_GT(prio("ccl.cruise1"), prio("ccl.cruise2"));
}

TEST(CruiseControl, TranslationMatchesPaperCounts) {
  // §4.1: "the translation produces six ACSR processes that represent
  // threads and six ACSR processes that represent dispatchers for each
  // thread. All connections in the example are data connections, thus no
  // queue processes are introduced."
  util::DiagnosticEngine diagnostics("cruise_control.aadl");
  const std::string acsr = acsr_dump(diagnostics);
  ASSERT_FALSE(acsr.empty()) << diagnostics.render_all();
  int skeletons = 0, dispatchers = 0, queues = 0;
  std::istringstream is(acsr);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("T_", 0) == 0 &&
        line.find("_Compute[e, t") != std::string::npos &&
        line.find("] =") != std::string::npos)
      ++skeletons;
    if (line.rfind("D_", 0) == 0 && line.find("_Idle[t] =") !=
                                        std::string::npos)
      ++dispatchers;
    if (line.rfind("Q_", 0) == 0) ++queues;
  }
  EXPECT_EQ(skeletons, 6);
  EXPECT_EQ(dispatchers, 6);
  EXPECT_EQ(queues, 0);
  // The bus shows up as a shared resource in the two bus-bound threads.
  EXPECT_NE(acsr.find("bus_vme"), std::string::npos);
}

TEST(CruiseControl, OverloadedVariantProducesScenario) {
  // Halve Cruise1's period: 2 quanta of work every 2 quanta plus Cruise2's
  // 2 quanta every 10 exceeds the ccl processor.
  std::string src = model_source();
  const std::string find = "    Period => 50 ms;\n"
                           "    Compute_Execution_Time => 10 ms .. 20 ms;\n"
                           "    Deadline => 50 ms;\n"
                           "  end Cruise1.impl;";
  const auto pos = src.find(find);
  ASSERT_NE(pos, std::string::npos);
  src.replace(pos, find.size(),
              "    Period => 20 ms;\n"
              "    Compute_Execution_Time => 20 ms .. 20 ms;\n"
              "    Deadline => 20 ms;\n"
              "  end Cruise1.impl;");
  const auto r =
      analyze_source(src, "CruiseControlSystem.impl", ten_ms());
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  ASSERT_TRUE(r.scenario.has_value());
  // The failing scenario names a ccl thread.
  ASSERT_FALSE(r.scenario->missed_threads.empty());
  bool ccl_missed = false;
  for (const auto& m : r.scenario->missed_threads)
    ccl_missed |= m.rfind("ccl.", 0) == 0;
  EXPECT_TRUE(ccl_missed) << r.summary();
  // The timeline covers all six threads.
  EXPECT_EQ(r.scenario->timeline.size(), 6u);
  EXPECT_GT(r.scenario->quanta, 0);
}

TEST(CruiseControl, FinerQuantumGrowsStateSpace) {
  // §4.1: "Precision of the timing analysis can be improved by making
  // scheduling quanta smaller, which tends to increase the size of the
  // state space."
  AnalyzerOptions coarse = ten_ms();
  AnalyzerOptions fine = ten_ms();
  fine.translation.quantum_ns = 5'000'000;  // 5 ms
  const auto rc =
      analyze_source(model_source(), "CruiseControlSystem.impl", coarse);
  const auto rf =
      analyze_source(model_source(), "CruiseControlSystem.impl", fine);
  ASSERT_NE(rc.outcome, core::Outcome::Error);
  ASSERT_NE(rf.outcome, core::Outcome::Error);
  EXPECT_EQ(rc.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(rf.outcome, core::Outcome::Schedulable);
  EXPECT_GT(rf.states, rc.states);
}

// The preemption pass tests each label against the surviving ones only.
// Its first ready-at-once state folds into thousands of candidate actions
// (3,240 at 2 ms, 19,965 at 1 ms); an all-pairs loop made ~243 and ~630
// tests per explored state.
TEST(CruiseControl, PreemptChecksStayNearLinear) {
  for (const std::int64_t quantum_ns : {2'000'000, 1'000'000}) {
    AnalyzerOptions opts;
    opts.translation.quantum_ns = quantum_ns;
    const auto r =
        analyze_source(model_source(), "CruiseControlSystem.impl", opts);
    ASSERT_EQ(r.outcome, core::Outcome::Schedulable) << r.summary();
    ASSERT_GT(r.states, 0u);
    const std::uint64_t checks = r.stats.semantics.preempt_checks;
    const double per_state =
        static_cast<double>(checks) / static_cast<double>(r.states);
    EXPECT_GT(checks, 0u);
    EXPECT_LE(per_state, 100.0)
        << checks << " preempt checks for " << r.states << " states at "
        << quantum_ns << " ns";
  }
}

TEST(CruiseControl, AcsrDumpIsSelfContained) {
  // The printed ACSR module ends in a "System" definition; parsing it back
  // into a fresh context and exploring System reproduces the verdict —
  // printer, parser, semantics and explorer close the loop, exactly like
  // feeding the paper's generated model to VERSA.
  util::DiagnosticEngine diagnostics("cruise_control.aadl");
  const std::string acsr = acsr_dump(diagnostics);
  ASSERT_FALSE(acsr.empty()) << diagnostics.render_all();

  acsr::Context ctx;
  util::DiagnosticEngine diags("dump.acsr");
  ASSERT_TRUE(acsr::parse_module(ctx, acsr, diags)) << diags.render_all();
  const auto system = ctx.find_definition("System");
  ASSERT_TRUE(system.has_value());

  acsr::Semantics sem(ctx);
  const auto r =
      versa::explore(sem, ctx.terms().call(*system, {}));
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.deadlock_found);

  // Same state count as the direct pipeline.
  const auto direct = analyze_source(model_source(),
                                     "CruiseControlSystem.impl", ten_ms());
  EXPECT_EQ(r.states, direct.states);
}

TEST(CruiseControl, SummaryRendersHumanReadable) {
  const auto r = analyze_source(model_source(), "CruiseControlSystem.impl",
                                ten_ms());
  const std::string s = r.summary();
  EXPECT_NE(s.find("SCHEDULABLE"), std::string::npos);
  EXPECT_NE(s.find("states"), std::string::npos);
}

}  // namespace
