// Tests for the inverse bridge: AADL instance model -> classical task set
// (core/taskset_extract.hpp). Round-trips through taskset_to_aadl must be
// the identity on the classical view.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "aadl/parser.hpp"
#include "acsr/context.hpp"
#include "core/taskset_aadl.hpp"
#include "core/taskset_extract.hpp"
#include "lint/screen_view.hpp"
#include "sched/analysis.hpp"
#include "translate/translator.hpp"

using namespace aadlsched;

namespace {

std::unique_ptr<aadl::InstanceModel> load(const std::string& src,
                                          aadl::Model& model,
                                          util::DiagnosticEngine& diags,
                                          std::string_view root) {
  EXPECT_TRUE(aadl::parse_aadl(model, src, diags)) << diags.render_all();
  return aadl::instantiate(model, root, diags);
}

std::string read_model(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool fixed_priority(aadl::SchedulingProtocol p) {
  return p == aadl::SchedulingProtocol::RateMonotonic ||
         p == aadl::SchedulingProtocol::DeadlineMonotonic ||
         p == aadl::SchedulingProtocol::HighestPriorityFirst;
}

int sign(int v) { return (v > 0) - (v < 0); }

TEST(Extract, RoundTripsThroughTasksetToAadl) {
  sched::TaskSet ts;
  sched::Task a;
  a.name = "a";
  a.bcet = 1;
  a.wcet = 2;
  a.period = 8;
  a.deadline = 6;
  a.priority = 2;
  sched::Task b;
  b.name = "b";
  b.wcet = b.bcet = 3;
  b.period = b.deadline = 12;
  b.priority = 1;
  b.processor = 1;
  ts.tasks = {a, b};

  aadl::Model model;
  util::DiagnosticEngine diags;
  auto inst = load(
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority),
      model, diags, "Root.impl");
  ASSERT_NE(inst, nullptr);

  const auto ex = core::extract_taskset(*inst, 1'000'000, diags);
  ASSERT_TRUE(ex.has_value()) << diags.render_all();
  ASSERT_EQ(ex->tasks.tasks.size(), 2u);
  EXPECT_FALSE(ex->lossy);
  const sched::Task& ea = ex->tasks.tasks[0];
  EXPECT_EQ(ea.name, "t0");
  EXPECT_EQ(ea.bcet, 1);
  EXPECT_EQ(ea.wcet, 2);
  EXPECT_EQ(ea.period, 8);
  EXPECT_EQ(ea.deadline, 6);
  EXPECT_EQ(ea.processor, 0);
  EXPECT_EQ(ex->tasks.tasks[1].processor, 1);
  ASSERT_EQ(ex->processor_paths.size(), 2u);
}

TEST(Extract, RmProtocolAssignsPriorities) {
  const char* src = R"(
    package P
    public
      processor Cpu
      properties
        Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
      end Cpu;
      thread Fast
      end Fast;
      thread implementation Fast.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 5 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
      end Fast.impl;
      thread Slow
      end Slow;
      thread implementation Slow.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 20 ms;
        Compute_Execution_Time => 2 ms .. 2 ms;
      end Slow.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        s   : thread Slow.impl;
        f   : thread Fast.impl;
        cpu : processor Cpu;
      properties
        Actual_Processor_Binding => reference (cpu) applies to s;
        Actual_Processor_Binding => reference (cpu) applies to f;
      end R.impl;
    end P;
  )";
  aadl::Model model;
  util::DiagnosticEngine diags;
  auto inst = load(src, model, diags, "R.impl");
  ASSERT_NE(inst, nullptr);
  const auto ex = core::extract_taskset(*inst, 1'000'000, diags);
  ASSERT_TRUE(ex.has_value());
  const sched::Task* fast = nullptr;
  const sched::Task* slow = nullptr;
  for (const auto& t : ex->tasks.tasks) {
    if (t.name == "f") fast = &t;
    if (t.name == "s") slow = &t;
  }
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  EXPECT_GT(fast->priority, slow->priority);
  // The extracted view is immediately usable by RTA.
  EXPECT_EQ(sched::response_time_analysis(ex->tasks).verdict,
            sched::Verdict::Schedulable);
}

TEST(Extract, EventFeaturesAreFlaggedLossy) {
  aadl::Model model;
  util::DiagnosticEngine diags;
  auto inst = load(read_model("avionics.aadl"), model, diags, "Avionics.impl");
  ASSERT_NE(inst, nullptr);
  const auto ex = core::extract_taskset(*inst, 1'000'000, diags);
  ASSERT_TRUE(ex.has_value()) << diags.render_all();
  EXPECT_TRUE(ex->lossy);
  EXPECT_EQ(ex->tasks.tasks.size(), 5u);
  EXPECT_EQ(ex->processor_paths.size(), 2u);
}

TEST(Extract, MissingBindingReported) {
  const char* src = R"(
    package P
    public
      thread T
      end T;
      thread implementation T.impl
      properties
        Dispatch_Protocol => Periodic;
        Period => 5 ms;
        Compute_Execution_Time => 1 ms .. 1 ms;
      end T.impl;
      system R
      end R;
      system implementation R.impl
      subcomponents
        t : thread T.impl;
      end R.impl;
    end P;
  )";
  aadl::Model model;
  util::DiagnosticEngine diags;
  auto inst = load(src, model, diags, "R.impl");
  ASSERT_NE(inst, nullptr);
  util::DiagnosticEngine ediags;
  EXPECT_FALSE(core::extract_taskset(*inst, 1'000'000, ediags).has_value());
  EXPECT_TRUE(ediags.has_errors());
}

// RTA, the simulator and the lint screens must analyze the priorities
// exploration uses. On every shipped model and fixed-priority processor,
// the classical view orders threads as the translation does (aperiodic
// threads rank by their missing period, not by the deadline the classical
// view substitutes for it) and the lint screen view carries the
// translation's priorities exactly.
TEST(Extract, PrioritiesFollowTheTranslation) {
  const std::pair<const char*, const char*> kModels[] = {
      {"avionics.aadl", "Avionics.impl"},
      {"cruise_control.aadl", "CruiseControlSystem.impl"},
      {"dual_rig.aadl", "DualRig.impl"},
      {"quantum_ladder.aadl", "QuantumLadder.impl"},
      {"slow_periodic.aadl", "SlowPeriodic.impl"},
      {"storm.aadl", "Storm.impl"},
      {"symmetric.aadl", "Symmetric.impl"}};
  int compared = 0;
  for (const auto& [file, root] : kModels) {
    for (const std::int64_t q_ms : {1, 2}) {
      SCOPED_TRACE(std::string(file) + " at " + std::to_string(q_ms) + " ms");
      aadl::Model model;
      util::DiagnosticEngine diags;
      auto inst = load(read_model(file), model, diags, root);
      ASSERT_NE(inst, nullptr) << diags.render_all();
      translate::TranslateOptions topts;
      topts.quantum_ns = q_ms * 1'000'000;
      acsr::Context ctx;
      const auto tr = translate::translate(ctx, *inst, diags, topts);
      ASSERT_TRUE(tr.has_value()) << diags.render_all();
      const auto translated = [&](const std::string& path) {
        const translate::TranslatedThread* t = tr->thread_by_path(path);
        EXPECT_NE(t, nullptr) << path;
        return t ? t->static_priority : 0;
      };

      const auto ex = core::extract_taskset(*inst, topts.quantum_ns, diags);
      ASSERT_TRUE(ex.has_value()) << diags.render_all();
      const std::vector<sched::Task>& tasks = ex->tasks.tasks;
      for (const sched::Task& a : tasks) {
        if (!fixed_priority(ex->protocols[a.processor])) continue;
        for (const sched::Task& b : tasks) {
          if (&a == &b || a.processor != b.processor) continue;
          EXPECT_EQ(sign(a.priority - b.priority),
                    sign(translated(a.name) - translated(b.name)))
              << "classical order of " << a.name << " vs " << b.name;
          ++compared;
        }
      }

      for (const lint::ScreenCpu& sc :
           lint::extract_screen_cpus(*inst, topts.quantum_ns)) {
        ASSERT_TRUE(sc.protocol.has_value());
        if (!fixed_priority(*sc.protocol)) continue;
        for (const lint::ScreenTask& t : sc.tasks) {
          EXPECT_EQ(t.priority, translated(t.inst->path))
              << "screen view priority of " << t.inst->path;
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(Extract, RefusesPeriodBelowOneQuantum) {
  // t0's 500 us Period quantizes to zero quanta at 1 ms. Exploration
  // refuses the model (AL005); the classical view must refuse it too rather
  // than hand RTA and the simulator a zero period.
  std::ifstream in(std::string(AADLSCHED_CORPUS_DIR) +
                   "/../sub_quantum_period.aadl");
  std::ostringstream os;
  os << in.rdbuf();
  util::DiagnosticEngine diags("sub_quantum_period.aadl");
  aadl::Model model;
  auto inst = load(os.str(), model, diags, "Root.impl");
  ASSERT_TRUE(inst && !diags.has_errors()) << diags.render_all();
  util::DiagnosticEngine ediags("extract");
  EXPECT_FALSE(core::extract_taskset(*inst, 1'000'000, ediags));
  EXPECT_NE(ediags.render_all().find("t0: Period (500000 ns) is smaller "
                                     "than the scheduling quantum"),
            std::string::npos)
      << ediags.render_all();
  // At a 100 us quantum, which the period survives, the model extracts.
  util::DiagnosticEngine fine("extract");
  EXPECT_TRUE(core::extract_taskset(*inst, 100'000, fine))
      << fine.render_all();
}

}  // namespace
