// Symbolic engine suite (DESIGN.md §16): the DBM zone algebra, the
// state-class graph itself, the AADL fragment extraction, the analyzer
// wiring, and — the load-bearing part — the cross-engine agreement
// contract: on every model inside the fragment the symbolic verdict and
// the canonical result JSON must match the unit-quantum enumerator
// byte-for-byte once the engine-observability counters are normalized
// away. The agreement matrix has its own directory-coverage test so a new
// example model cannot land without declaring its expected applicability.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "core/symbolic_extract.hpp"
#include "core/taskset_aadl.hpp"
#include "sched/analysis.hpp"
#include "sched/workload.hpp"
#include "versa/dbm.hpp"
#include "versa/sweep.hpp"
#include "versa/symbolic.hpp"

namespace {

using namespace aadlsched;
using versa::Dbm;
using versa::DbmBound;

constexpr std::int64_t ms(std::int64_t v) { return v * 1'000'000; }

std::string models_dir() { return AADLSCHED_MODELS_DIR; }

std::string read_model(const std::string& file) {
  std::ifstream in(models_dir() + "/" + file);
  EXPECT_TRUE(in.good()) << "cannot open " << file;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Blank one top-level scalar field of the canonical result JSON.
std::string normalize_field(std::string json, const std::string& field) {
  const std::string key = "\"" + field + "\": ";
  const auto pos = json.find(key);
  if (pos == std::string::npos) return json;
  auto end = pos + key.size();
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  json.replace(pos + key.size(), end - (pos + key.size()), "X");
  return json;
}

/// The agreement contract (DESIGN.md §16): everything except how the
/// engine got there — engine name, class/state counts, timings — must be
/// byte-identical across engines.
std::string normalize_engine_observability(std::string json) {
  for (const char* field : {"engine", "states", "transitions", "depth",
                            "explore_ms", "peak_frontier"})
    json = normalize_field(std::move(json), field);
  return json;
}

// --- DBM zone algebra ----------------------------------------------------

TEST(Dbm, PointZoneIsCanonicalAndSelfIncluding) {
  const Dbm p = Dbm::point({3, 5});
  ASSERT_FALSE(p.empty());
  EXPECT_EQ(p.dimension(), 3u);
  // x1 = 3: x1 - 0 <= 3 and 0 - x1 <= -3.
  EXPECT_EQ(p.at(1, 0), (DbmBound{3, false}));
  EXPECT_EQ(p.at(0, 1), (DbmBound{-3, false}));
  // Implied difference bound is explicit after canonicalization.
  EXPECT_EQ(p.at(1, 2), (DbmBound{-2, false}));
  EXPECT_TRUE(p.includes(p));
  EXPECT_EQ(p, p);
}

TEST(Dbm, UpRemovesUpperBoundsAndKeepsDifferences) {
  const Dbm p = Dbm::point({3, 5});
  Dbm d = p;
  d.up();
  ASSERT_FALSE(d.empty());
  // Upper bounds gone, lower bounds and differences intact.
  EXPECT_EQ(d.at(1, 0).value, versa::kDbmInf);
  EXPECT_EQ(d.at(2, 0).value, versa::kDbmInf);
  EXPECT_EQ(d.at(0, 1), (DbmBound{-3, false}));
  EXPECT_EQ(d.at(1, 2), (DbmBound{-2, false}));
  EXPECT_EQ(d.at(2, 1), (DbmBound{2, false}));
  // The delay closure includes the point, never the other way around.
  EXPECT_TRUE(d.includes(p));
  EXPECT_FALSE(p.includes(d));
}

TEST(Dbm, ContradictoryConstraintsMakeTheZoneEmpty) {
  Dbm z(1);
  z.constrain_upper(1, 2);
  z.constrain_lower(1, 3);
  z.canonicalize();
  EXPECT_TRUE(z.empty());

  // Strictness matters at the boundary: x <= 2 and x >= 2 is the point 2,
  // x < 2 and x >= 2 is empty.
  Dbm touching(1);
  touching.constrain_upper(1, 2);
  touching.constrain_lower(1, 2);
  touching.canonicalize();
  EXPECT_FALSE(touching.empty());
  Dbm strict(1);
  strict.constrain_upper(1, 2, /*strict=*/true);
  strict.constrain_lower(1, 2);
  strict.canonicalize();
  EXPECT_TRUE(strict.empty());
}

TEST(Dbm, InclusionIsEntrywiseOnCanonicalForms) {
  Dbm universal(2);
  universal.canonicalize();
  const Dbm p = Dbm::point({1, 4});
  EXPECT_TRUE(universal.includes(p));
  EXPECT_FALSE(p.includes(universal));

  Dbm band(2);
  band.constrain_upper(1, 10);
  band.constrain_upper(2, 10);
  band.canonicalize();
  EXPECT_TRUE(universal.includes(band));
  EXPECT_TRUE(band.includes(p));
  EXPECT_FALSE(band.includes(universal));
}

TEST(Dbm, EqualZonesHashEqual) {
  const Dbm a = Dbm::point({7, 2});
  const Dbm b = Dbm::point({7, 2});
  const Dbm c = Dbm::point({7, 3});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);  // hashes may collide; equality must not
  EXPECT_NE(a.to_string(), "");
}

TEST(Dbm, BoundSemiring) {
  EXPECT_TRUE(versa::dbm_less(DbmBound{2, true}, DbmBound{2, false}));
  EXPECT_TRUE(versa::dbm_less(DbmBound{1, false}, DbmBound{2, true}));
  EXPECT_FALSE(versa::dbm_less(versa::dbm_inf(), DbmBound{2, false}));
  const DbmBound sum = versa::dbm_add(DbmBound{2, true}, DbmBound{3, false});
  EXPECT_EQ(sum.value, 5);
  EXPECT_TRUE(sum.strict);
  EXPECT_EQ(versa::dbm_add(versa::dbm_inf(), DbmBound{-4, false}).value,
            versa::kDbmInf);
}

// --- the state-class engine over hand-built task networks ----------------

versa::SymbolicTask task(const char* path, std::int64_t period,
                         std::int64_t deadline, std::int64_t cmin,
                         std::int64_t cmax, int priority,
                         std::size_t cpu = 0, std::int64_t offset = 0) {
  versa::SymbolicTask t;
  t.path = path;
  t.period_ns = period;
  t.deadline_ns = deadline;
  t.cmin_ns = cmin;
  t.cmax_ns = cmax;
  t.priority = priority;
  t.cpu = cpu;
  t.offset_ns = offset;
  return t;
}

TEST(SymbolicEngine, ExactFitCompletingAtTheDeadlineIsOnTime) {
  // 12 + 8 fill the shared 20 ms period exactly; the low-priority thread
  // completes precisely at its deadline (the dispatcher semantics: the
  // AwaitDone receive has no time guard, so t = D is on time).
  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("major", ms(20), ms(20), ms(12), ms(12), 2),
             task("minor", ms(20), ms(20), ms(8), ms(8), 1)};
  const auto r = versa::explore_symbolic(m);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.miss_found);
  EXPECT_TRUE(r.schedulable());
  EXPECT_EQ(r.stop, util::StopReason::None);
  EXPECT_EQ(r.dbm_dimension, 3u);
  EXPECT_GT(r.classes, 0u);
  EXPECT_GT(r.depth, 0u);
  // A periodic model only closes its class graph by folding the cycle back
  // into a visited class — subsumption must have fired.
  EXPECT_GT(r.subsumptions, 0u);
  EXPECT_TRUE(r.witness.empty());
  EXPECT_TRUE(r.missed.empty());
}

TEST(SymbolicEngine, OverloadedProcessorYieldsAWitnessTrail) {
  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("hog", ms(20), ms(20), ms(15), ms(15), 2),
             task("starved", ms(20), ms(20), ms(8), ms(8), 1)};
  const auto r = versa::explore_symbolic(m);
  EXPECT_TRUE(r.miss_found);
  EXPECT_FALSE(r.schedulable());
  ASSERT_FALSE(r.witness.empty());
  EXPECT_NE(r.witness.front().find("system start"), std::string::npos);
  EXPECT_NE(r.witness.back().find("deadline miss"), std::string::npos);
  ASSERT_EQ(r.missed.size(), 1u);
  EXPECT_EQ(r.missed.front(), "starved");
}

TEST(SymbolicEngine, SingleTaskFillingItsDeadlineExactly) {
  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("solo", ms(10), ms(5), ms(5), ms(5), 1)};
  EXPECT_TRUE(versa::explore_symbolic(m).schedulable());
  // One more nanosecond of demand misses.
  m.tasks[0].cmin_ns = m.tasks[0].cmax_ns = ms(5) + 1;
  const auto r = versa::explore_symbolic(m);
  EXPECT_TRUE(r.miss_found);
  EXPECT_FALSE(r.schedulable());
}

TEST(SymbolicEngine, DispatchOffsetsShiftTheFirstWindow) {
  // Alone on the cpu, offset 3: jobs run [3+10k, 8+10k], completing right
  // at the deadline each period.
  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("delayed", ms(10), ms(5), ms(5), ms(5), 1, 0, ms(3))};
  EXPECT_TRUE(versa::explore_symbolic(m).schedulable());
}

TEST(SymbolicEngine, TwoProcessorsAreIndependent) {
  // Each cpu overloaded by the other's task if shared; partitioned fine.
  versa::SymbolicModel m;
  m.cpu_count = 2;
  m.tasks = {task("a", ms(4), ms(4), ms(3), ms(3), 1, 0),
             task("b", ms(4), ms(4), ms(3), ms(3), 1, 1)};
  EXPECT_TRUE(versa::explore_symbolic(m).schedulable());
  m.cpu_count = 1;
  m.tasks[1].cpu = 0;
  m.tasks[1].priority = 2;
  EXPECT_TRUE(versa::explore_symbolic(m).miss_found);
}

TEST(SymbolicEngine, MaxClassesCapStopsInconclusively) {
  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("major", ms(20), ms(20), ms(12), ms(12), 2),
             task("minor", ms(20), ms(20), ms(8), ms(8), 1)};
  versa::SymbolicOptions opts;
  opts.max_classes = 2;
  const auto r = versa::explore_symbolic(m, opts);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.miss_found);
  EXPECT_FALSE(r.schedulable());
  EXPECT_EQ(r.stop, util::StopReason::MaxStates);
}

TEST(SymbolicEngine, ValidateModelRefusesMalformedNetworks) {
  versa::SymbolicModel empty;
  EXPECT_FALSE(versa::validate_model(empty).empty());

  versa::SymbolicModel m;
  m.cpu_count = 1;
  m.tasks = {task("a", ms(10), ms(10), ms(1), ms(1), 1),
             task("b", ms(10), ms(12), ms(1), ms(1), 1)};  // D > T, dup prio
  const auto reasons = versa::validate_model(m);
  ASSERT_EQ(reasons.size(), 2u);
  EXPECT_NE(reasons[0].find("deadline is not constrained"),
            std::string::npos);
  EXPECT_NE(reasons[1].find("share a priority"), std::string::npos);

  // explore_symbolic surfaces the refusal as a Fault, never a verdict.
  const auto r = versa::explore_symbolic(m);
  EXPECT_EQ(r.stop, util::StopReason::Fault);
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.schedulable());
  EXPECT_EQ(r.witness, reasons);
}

// --- AADL fragment extraction --------------------------------------------

core::SymbolicExtraction extract(const std::string& src,
                                 const std::string& root) {
  aadl::Model model;
  util::DiagnosticEngine diags;
  EXPECT_TRUE(aadl::parse_aadl(model, src, diags)) << diags.render_all();
  auto inst = aadl::instantiate(model, root, diags);
  EXPECT_NE(inst, nullptr) << diags.render_all();
  return core::extract_symbolic(*inst, translate::TranslateOptions{});
}

TEST(SymbolicExtract, QuantumLadderIsInsideTheFragment) {
  const auto sx =
      extract(read_model("quantum_ladder.aadl"), "QuantumLadder.impl");
  ASSERT_TRUE(sx.applicable) << sx.why();
  ASSERT_EQ(sx.model.tasks.size(), 2u);
  EXPECT_EQ(sx.model.cpu_count, 1u);
  // Exact nanoseconds, no quantum anywhere.
  std::set<std::int64_t> demands;
  for (const auto& t : sx.model.tasks) {
    EXPECT_EQ(t.period_ns, ms(20));
    EXPECT_EQ(t.deadline_ns, ms(20));
    EXPECT_EQ(t.cmin_ns, t.cmax_ns);
    demands.insert(t.cmax_ns);
  }
  EXPECT_EQ(demands, (std::set<std::int64_t>{ms(8), ms(12)}));
  EXPECT_NE(sx.model.tasks[0].priority, sx.model.tasks[1].priority);
}

TEST(SymbolicExtract, DualRigCarriesProcessorsAndOffsets) {
  const auto sx = extract(read_model("dual_rig.aadl"), "DualRig.impl");
  ASSERT_TRUE(sx.applicable) << sx.why();
  ASSERT_EQ(sx.model.tasks.size(), 3u);
  EXPECT_EQ(sx.model.cpu_count, 2u);
  std::set<std::int64_t> offsets;
  for (const auto& t : sx.model.tasks) offsets.insert(t.offset_ns);
  EXPECT_EQ(offsets, (std::set<std::int64_t>{0, ms(5), ms(10)}));
}

TEST(SymbolicExtract, CruiseControlIsRefusedWithReasons) {
  const auto sx = extract(read_model("cruise_control.aadl"),
                          "CruiseControlSystem.impl");
  EXPECT_FALSE(sx.applicable);
  ASSERT_FALSE(sx.reasons.empty());
  EXPECT_NE(sx.why().find("bus"), std::string::npos) << sx.why();
}

TEST(SymbolicExtract, SymmetricSharedPrioritiesAreRefused) {
  const auto sx = extract(read_model("symmetric.aadl"), "Symmetric.impl");
  EXPECT_FALSE(sx.applicable);
  EXPECT_NE(sx.why().find("HPF priority"), std::string::npos) << sx.why();
}

TEST(SymbolicExtract, RefusalReasonsFollowProcessorModelOrder) {
  // Both processors are refused; the reasons list them in model order
  // ('zeta' is declared before 'alpha'), whatever their addresses.
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => EDF_PROTOCOL;
  end Cpu;
  thread T
  end T;
  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
  end T.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    t_zeta : thread T.impl;
    t_alpha : thread T.impl;
    zeta : processor Cpu;
    alpha : processor Cpu;
  properties
    Actual_Processor_Binding => reference (zeta) applies to t_zeta;
    Actual_Processor_Binding => reference (alpha) applies to t_alpha;
  end S.impl;
end P;
)";
  const auto sx = extract(src, "S.impl");
  EXPECT_FALSE(sx.applicable);
  ASSERT_EQ(sx.reasons.size(), 2u) << sx.why();
  EXPECT_NE(sx.reasons[0].find("'zeta'"), std::string::npos) << sx.why();
  EXPECT_NE(sx.reasons[1].find("'alpha'"), std::string::npos) << sx.why();
}

// --- analyzer wiring -----------------------------------------------------

core::AnalyzerOptions engine_options(core::Engine engine) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;
  opts.engine = engine;
  return opts;
}

TEST(SymbolicAnalyzer, EngineStringsRoundTrip) {
  for (const core::Engine e : {core::Engine::Enumerative,
                               core::Engine::Symbolic, core::Engine::Auto}) {
    const auto parsed = core::engine_from_string(core::to_string(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_FALSE(core::engine_from_string("zonal").has_value());
  EXPECT_FALSE(core::engine_from_string("").has_value());
}

TEST(SymbolicAnalyzer, SymbolicVerdictCarriesTheEngineObservability) {
  const auto r = core::analyze_source(
      read_model("quantum_ladder.aadl"), "QuantumLadder.impl",
      engine_options(core::Engine::Symbolic));
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.engine, core::Engine::Symbolic);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_GT(r.states, 0u);
  EXPECT_GT(r.stats.zone_subsumptions, 0u);
  EXPECT_EQ(r.stats.dbm_dimension, 3u);
  const std::string json = core::render_result_json(r);
  EXPECT_NE(json.find("\"engine\": \"symbolic\""), std::string::npos);
  EXPECT_NE(r.summary().find("symbolic:"), std::string::npos);
  EXPECT_NE(r.summary().find("zones explored"), std::string::npos);
}

TEST(SymbolicAnalyzer, AutoFallsBackWithTheReasonsInDiagnostics) {
  const auto r = core::analyze_source(read_model("cruise_control.aadl"),
                                      "CruiseControlSystem.impl",
                                      engine_options(core::Engine::Auto));
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.engine, core::Engine::Enumerative);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_NE(r.diagnostics.find("symbolic engine inapplicable"),
            std::string::npos);
  EXPECT_NE(r.diagnostics.find("falling back to enumerative"),
            std::string::npos);
  EXPECT_EQ(r.stats.zone_subsumptions, 0u);
}

TEST(SymbolicAnalyzer, AutoUsesTheSymbolicEngineInsideTheFragment) {
  const auto r = core::analyze_source(
      read_model("quantum_ladder.aadl"), "QuantumLadder.impl",
      engine_options(core::Engine::Auto));
  ASSERT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.engine, core::Engine::Symbolic);
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
}

TEST(SymbolicAnalyzer, ForcedSymbolicOutsideTheFragmentIsAnError) {
  const auto r = core::analyze_source(read_model("cruise_control.aadl"),
                                      "CruiseControlSystem.impl",
                                      engine_options(core::Engine::Symbolic));
  EXPECT_EQ(r.outcome, core::Outcome::Error);
  EXPECT_EQ(r.outcome, core::Outcome::Error);
  EXPECT_NE(r.diagnostics.find("symbolic engine inapplicable"),
            std::string::npos);
}

constexpr char kOverloadModel[] = R"(
package Overload
public
  processor CPU
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end CPU;

  thread Hog
  end Hog;

  thread implementation Hog.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 20 ms;
    Compute_Execution_Time => 15 ms .. 15 ms;
    Deadline => 20 ms;
  end Hog.impl;

  thread Starved
  end Starved;

  thread implementation Starved.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 40 ms;
    Compute_Execution_Time => 12 ms .. 12 ms;
    Deadline => 40 ms;
  end Starved.impl;

  system Overload
  end Overload;

  system implementation Overload.impl
  subcomponents
    hog : thread Hog.impl;
    starved : thread Starved.impl;
    cpu : processor CPU;
  properties
    Actual_Processor_Binding => reference (cpu) applies to hog;
    Actual_Processor_Binding => reference (cpu) applies to starved;
  end Overload.impl;
end Overload;
)";

TEST(SymbolicAnalyzer, MissRendersTheWitnessTrailInTheSummary) {
  const auto sym = core::analyze_source(kOverloadModel, "Overload.impl",
                                        engine_options(core::Engine::Symbolic));
  ASSERT_NE(sym.outcome, core::Outcome::Error) << sym.diagnostics;
  // A found miss is conclusive.
  EXPECT_EQ(sym.outcome, core::Outcome::NotSchedulable);
  ASSERT_FALSE(sym.symbolic_witness.empty());
  const std::string summary = sym.summary();
  EXPECT_NE(summary.find("Counterexample event trail"), std::string::npos);
  EXPECT_NE(summary.find("deadline miss"), std::string::npos);

  // Same verdict as the enumerator, byte-for-byte after normalization.
  const auto en = core::analyze_source(
      kOverloadModel, "Overload.impl",
      engine_options(core::Engine::Enumerative));
  ASSERT_NE(en.outcome, core::Outcome::Error) << en.diagnostics;
  EXPECT_EQ(en.outcome, core::Outcome::NotSchedulable);
  EXPECT_EQ(normalize_engine_observability(core::render_result_json(sym)),
            normalize_engine_observability(core::render_result_json(en)));
}

// --- the cross-engine agreement matrix -----------------------------------

struct AgreementModel {
  const char* file;
  const char* root;
  bool applicable;  // inside the symbolic fragment?
  std::int64_t quantum_ns;  // a divisor of every parameter, so the
                            // enumerator's rounding is exact
};

/// Every shipped example model with its expected symbolic applicability.
/// The DirectoryIsFullyCovered test fails when a model lands without being
/// classified here — agreement coverage must stay exhaustive.
constexpr AgreementModel kAgreement[] = {
    {"cruise_control.aadl", "CruiseControlSystem.impl", false, 1'000'000},
    {"avionics.aadl", "Avionics.impl", false, 1'000'000},
    {"storm.aadl", "Storm.impl", false, 1'000'000},
    {"symmetric.aadl", "Symmetric.impl", false, 1'000'000},
    {"quantum_ladder.aadl", "QuantumLadder.impl", true, 1'000'000},
    {"slow_periodic.aadl", "SlowPeriodic.impl", true, 10'000'000},
    {"dual_rig.aadl", "DualRig.impl", true, 1'000'000},
};

TEST(SymbolicAgreement, DirectoryIsFullyCovered) {
  std::set<std::string> listed;
  for (const AgreementModel& m : kAgreement) listed.insert(m.file);
  for (const auto& entry :
       std::filesystem::directory_iterator(models_dir())) {
    if (entry.path().extension() != ".aadl") continue;
    EXPECT_TRUE(listed.count(entry.path().filename().string()))
        << entry.path().filename()
        << " is not in the cross-engine agreement matrix; add it to "
           "kAgreement with its expected applicability";
  }
}

TEST(SymbolicAgreement, EveryApplicableModelAgreesByteForByte) {
  for (const AgreementModel& m : kAgreement) {
    const std::string src = read_model(m.file);
    if (!m.applicable) {
      const auto forced = core::analyze_source(
          src, m.root, engine_options(core::Engine::Symbolic));
      EXPECT_EQ(forced.outcome, core::Outcome::Error) << m.file;
      EXPECT_NE(forced.diagnostics.find("symbolic engine inapplicable"),
                std::string::npos)
          << m.file;
      continue;
    }
    core::AnalyzerOptions en = engine_options(core::Engine::Enumerative);
    en.translation.quantum_ns = m.quantum_ns;
    core::AnalyzerOptions sy = en;
    sy.engine = core::Engine::Symbolic;

    const auto r_en = core::analyze_source(src, m.root, en);
    const auto r_sy = core::analyze_source(src, m.root, sy);
    ASSERT_NE(r_en.outcome, core::Outcome::Error)
        << m.file << ": " << r_en.diagnostics;
    ASSERT_NE(r_sy.outcome, core::Outcome::Error)
        << m.file << ": " << r_sy.diagnostics;
    EXPECT_EQ(r_sy.outcome, r_en.outcome) << m.file;
    EXPECT_EQ(
        normalize_engine_observability(core::render_result_json(r_sy)),
        normalize_engine_observability(core::render_result_json(r_en)))
        << m.file;
  }
}

// --- randomized agreement: symbolic == enumerative == closed form --------

class SymbolicProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SymbolicProperty, GeneratedTasksetsAgreeAcrossAllThreeProcedures) {
  const std::uint64_t seed = GetParam();
  sched::WorkloadSpec spec;
  spec.task_count = 3;
  // Sweep utilization 0.6..1.1 with the seed, crossing the schedulability
  // boundary so both verdicts are exercised.
  spec.total_utilization = 0.6 + 0.1 * static_cast<double>(seed % 6);
  sched::TaskSet ts = sched::generate_workload(spec, seed);
  sched::assign_rate_monotonic(ts);
  const std::string src =
      core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority);

  const auto en = core::analyze_source(
      src, "Root.impl", engine_options(core::Engine::Enumerative));
  const auto sy = core::analyze_source(
      src, "Root.impl", engine_options(core::Engine::Symbolic));
  ASSERT_NE(en.outcome, core::Outcome::Error)
      << "seed " << seed << "\n" << en.diagnostics << src;
  ASSERT_NE(sy.outcome, core::Outcome::Error)
      << "seed " << seed << "\n" << sy.diagnostics << src;
  EXPECT_EQ(sy.engine, core::Engine::Symbolic);

  // Engine agreement, byte-for-byte on the canonical result.
  EXPECT_EQ(sy.outcome, en.outcome) << "seed " << seed << "\n" << src;
  EXPECT_EQ(normalize_engine_observability(core::render_result_json(sy)),
            normalize_engine_observability(core::render_result_json(en)))
      << "seed " << seed << "\n" << src;

  // Closed-form agreement: exact RTA on the same task set.
  const bool rta = sched::response_time_analysis(ts).verdict ==
                   sched::Verdict::Schedulable;
  EXPECT_EQ(sy.outcome == core::Outcome::Schedulable, rta)
      << "seed " << seed << "\n" << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymbolicProperty,
                         ::testing::Range<std::uint64_t>(1, 31));

// --- the acceptance story: decide where the enumerator blows its budget --

TEST(SymbolicBudget, SlowPeriodicDecidesWithinTheEnumeratorsBlownBudget) {
  const std::string src = read_model("slow_periodic.aadl");
  // The enumerator needs 255,255 states for slow_periodic at 1 ms; the
  // symbolic engine closes its class graph in 2,218 classes. One state cap
  // between the two bounds both engines the same way on any host.
  constexpr std::uint64_t kMaxStates = 20'000;

  // The enumerator at the CLI-default 1 ms quantum: the 252 s hyperperiod
  // leaves it inconclusive at the cap.
  core::AnalyzerOptions en = engine_options(core::Engine::Enumerative);
  en.exploration.max_states = kMaxStates;
  const auto r_en = core::analyze_source(src, "SlowPeriodic.impl", en);
  ASSERT_NE(r_en.outcome, core::Outcome::Error) << r_en.diagnostics;
  EXPECT_EQ(r_en.outcome, core::Outcome::Inconclusive);
  EXPECT_EQ(r_en.stop_reason, util::StopReason::MaxStates);

  // The symbolic engine under the same cap closes the class graph and
  // proves schedulability outright.
  core::AnalyzerOptions sy = engine_options(core::Engine::Symbolic);
  sy.exploration.max_states = kMaxStates;
  const auto r_sy = core::analyze_source(src, "SlowPeriodic.impl", sy);
  ASSERT_NE(r_sy.outcome, core::Outcome::Error) << r_sy.diagnostics;
  EXPECT_EQ(r_sy.outcome, core::Outcome::Schedulable);
  EXPECT_LT(r_sy.states, kMaxStates);
}

// --- concurrency: symbolic analyses under parallel_sweep (tsan) ----------

TEST(SymbolicConcurrency, ParallelSweepProducesIdenticalResults) {
  const std::string ladder = read_model("quantum_ladder.aadl");
  const std::string rig = read_model("dual_rig.aadl");

  const auto ref_ladder = normalize_field(
      core::render_result_json(core::analyze_source(
          ladder, "QuantumLadder.impl",
          engine_options(core::Engine::Symbolic))),
      "explore_ms");
  const auto ref_rig = normalize_field(
      core::render_result_json(
          core::analyze_source(rig, "DualRig.impl",
                               engine_options(core::Engine::Symbolic))),
      "explore_ms");

  constexpr std::size_t kJobs = 16;
  std::vector<std::string> got(kJobs);
  const auto report = versa::parallel_sweep(
      kJobs,
      [&](std::size_t i) {
        const bool even = (i % 2) == 0;
        const auto r = core::analyze_source(
            even ? ladder : rig,
            even ? "QuantumLadder.impl" : "DualRig.impl",
            engine_options(core::Engine::Symbolic));
        got[i] = normalize_field(core::render_result_json(r), "explore_ms");
      },
      /*workers=*/8);
  ASSERT_TRUE(report.ok());
  for (std::size_t i = 0; i < kJobs; ++i)
    EXPECT_EQ(got[i], (i % 2) == 0 ? ref_ladder : ref_rig) << "job " << i;
}

}  // namespace
