// aadllint: one positive and one negative fixture per pass (AL001..AL016),
// framework/registry behavior, and the Analyzer integration contract —
// a conclusive screening verdict provably skips exploration (0 states) and
// always agrees with the verdict exploration would have produced. Every
// certificate any fixture emits is replayed by the independent witness
// checker (tests/witness_checker.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "acsr_invariants.hpp"
#include "acsr/builder.hpp"
#include "acsr/context.hpp"
#include "acsr/semantics.hpp"
#include "aadl/parser.hpp"
#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "core/taskset_aadl.hpp"
#include "lint/lint.hpp"
#include "sched/workload.hpp"
#include "translate/translator.hpp"
#include "versa/explorer.hpp"
#include "witness_checker.hpp"

using namespace aadlsched;

namespace {

lint::Options ms_options() {
  lint::Options opts;
  opts.translation.quantum_ns = 1'000'000;  // 1 ms
  return opts;
}

/// Parse + instantiate + lint. Front-end diagnostics are tolerated (some
/// fixtures are deliberately broken); parse/instantiate must still yield an
/// instance tree. Every certificate the report carries must survive the
/// independent witness checker — validated here so all fixtures, positive
/// and negative, exercise it.
lint::Report lint_source(const std::string& src,
                         const lint::Options& opts = ms_options(),
                         const std::string& root = "S.impl") {
  aadl::Model model;
  util::DiagnosticEngine diags;
  EXPECT_TRUE(aadl::parse_aadl(model, src, diags)) << diags.render_all();
  auto inst = aadl::instantiate(model, root, diags);
  EXPECT_NE(inst, nullptr) << diags.render_all();
  if (!inst) return {};
  lint::Report report = lint::run(*inst, opts);
  EXPECT_EQ(witness::check_all(report), "") << report.render_json();
  return report;
}

const lint::StaticCertificate* first_certificate(const lint::Report& r,
                                                 std::string_view check_id) {
  for (const lint::StaticCertificate& c : r.certificates)
    if (c.check_id == check_id) return &c;
  return nullptr;
}

std::size_t count_check(const lint::Report& r, std::string_view id) {
  std::size_t n = 0;
  for (const lint::Finding& f : r.findings)
    if (f.check_id == id) ++n;
  return n;
}

const lint::Finding* first_check(const lint::Report& r, std::string_view id) {
  for (const lint::Finding& f : r.findings)
    if (f.check_id == id) return &f;
  return nullptr;
}

/// A minimal clean system: one periodic thread on a rate-monotonic
/// processor, properly bound. Lints with zero findings above Note level.
std::string base_model(const std::string& extra_properties = {}) {
  return R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;

  thread T
  end T;

  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Deadline => 10 ms;
  end T.impl;

  system S
  end S;

  system implementation S.impl
  subcomponents
    t : thread T.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to t;
)" + extra_properties + R"(
  end S.impl;
end P;
)";
}

/// Two periodic threads at wcet 3 / period 4 on one RM processor:
/// U = 1.5 > 1, a guaranteed overload (AL007 conclusive NotSchedulable).
constexpr const char* kOverloadModel = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;

  thread A
  end A;

  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 3 ms .. 3 ms;
    Deadline => 4 ms;
  end A.impl;

  thread B
  end B;

  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 3 ms .. 3 ms;
    Deadline => 4 ms;
  end B.impl;

  system S
  end S;

  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
  end S.impl;
end P;
)";

/// Two periodic threads at wcet 5 / period 10 under EDF: U = 1.0 exactly,
/// schedulable, and the EDF utilization test is exact (AL009 vouches).
constexpr const char* kEdfExactModel = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => EDF_PROTOCOL;
  end Cpu;

  thread A
  end A;

  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 5 ms .. 5 ms;
    Deadline => 10 ms;
  end A.impl;

  thread B
  end B;

  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 5 ms .. 5 ms;
    Deadline => 10 ms;
  end B.impl;

  system S
  end S;

  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
  end S.impl;
end P;
)";

/// Two-thread model with connectable data ports; `connections` and thread
/// property overrides are injected by the caller.
std::string two_thread_model(const std::string& a_features,
                             const std::string& b_features,
                             const std::string& connections,
                             const std::string& a_props =
                                 "    Dispatch_Protocol => Periodic;\n"
                                 "    Period => 10 ms;\n"
                                 "    Compute_Execution_Time => 1 ms .. 1 "
                                 "ms;\n    Deadline => 10 ms;\n",
                             const std::string& b_props =
                                 "    Dispatch_Protocol => Periodic;\n"
                                 "    Period => 10 ms;\n"
                                 "    Compute_Execution_Time => 1 ms .. 1 "
                                 "ms;\n    Deadline => 10 ms;\n",
                             const std::string& extra_properties = {},
                             const std::string& protocol =
                                 "RATE_MONOTONIC_PROTOCOL") {
  const std::string connections_section =
      connections.empty() ? std::string()
                          : "  connections\n" + connections + "\n";
  return R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => )" + protocol + R"(;
  end Cpu;

  thread A
  features
)" + a_features + R"(
  end A;

  thread implementation A.impl
  properties
)" + a_props + R"(
  end A.impl;

  thread B
  features
)" + b_features + R"(
  end B;

  thread implementation B.impl
  properties
)" + b_props + R"(
  end B.impl;

  system S
  end S;

  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
)" + connections_section + R"(  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
)" + extra_properties + R"(
  end S.impl;
end P;
)";
}

}  // namespace

// --- framework / registry -------------------------------------------------

TEST(LintRegistry, BuiltinHasAllPassesWithUniqueStableIds) {
  const lint::Registry& reg = lint::Registry::builtin();
  EXPECT_EQ(reg.passes().size(), 14u);
  std::set<std::string_view> ids, names;
  for (const auto& p : reg.passes()) {
    EXPECT_TRUE(ids.insert(p->info().id).second)
        << "duplicate check id " << p->info().id;
    EXPECT_TRUE(names.insert(p->info().name).second);
    EXPECT_FALSE(p->info().contract.empty());
  }
  for (const char* id : {"AL001", "AL002", "AL003", "AL004", "AL005",
                         "AL006", "AL007", "AL008", "AL009", "AL012",
                         "AL013", "AL014", "AL015", "AL016"})
    EXPECT_TRUE(ids.count(id)) << "missing check " << id;
  // Retired ids are never reused: AL010/AL011 are translator invariants.
  EXPECT_FALSE(ids.count("AL010"));
  EXPECT_FALSE(ids.count("AL011"));
}

TEST(LintRegistry, ConclusivePassesDocumentTheirContract) {
  const lint::Registry& reg = lint::Registry::builtin();
  // The passes able to decide a verdict must state their soundness
  // argument (surfaced by `aadlsched --explain AL0NN`).
  for (const char* id : {"AL005", "AL007", "AL008", "AL009", "AL013",
                         "AL014", "AL015"}) {
    const lint::Pass* p = reg.find(id);
    ASSERT_NE(p, nullptr) << id;
    EXPECT_FALSE(p->info().rationale.empty()) << id;
    EXPECT_NE(p->info().contract, "advisory") << id;
  }
  EXPECT_EQ(reg.find("AL016")->info().contract, "advisory");
}

TEST(LintRegistry, FindsByIdAndByName) {
  const lint::Registry& reg = lint::Registry::builtin();
  const lint::Pass* by_id = reg.find("AL007");
  ASSERT_NE(by_id, nullptr);
  EXPECT_EQ(reg.find("utilization-overload"), by_id);
  EXPECT_EQ(by_id->info().tier, lint::Tier::Screening);
  EXPECT_EQ(reg.find("AL001")->info().tier, lint::Tier::ModelHygiene);
  EXPECT_EQ(reg.find("AL012")->info().tier, lint::Tier::AcsrWellFormedness);
  EXPECT_EQ(reg.find("AL999"), nullptr);
}

TEST(LintFramework, CleanModelHasNoFindingsAboveNote) {
  const lint::Report r = lint_source(base_model());
  EXPECT_EQ(r.errors(), 0u) << r.render_text();
  EXPECT_EQ(r.warnings(), 0u) << r.render_text();
  EXPECT_TRUE(r.translated);
}

TEST(LintFramework, RenderTextShowsCheckIdsAndVerdict) {
  const lint::Report r = lint_source(kOverloadModel);
  const std::string text = r.render_text();
  EXPECT_NE(text.find("[AL007 utilization-overload]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("static verdict: not_schedulable"), std::string::npos)
      << text;
}

TEST(LintFramework, RenderJsonCarriesVerdictAndFindings) {
  const lint::Report r = lint_source(kOverloadModel);
  const std::string json = r.render_json();
  EXPECT_NE(json.find("\"verdict\": \"not_schedulable\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"decided_by\": \"AL007\""), std::string::npos);
  EXPECT_NE(json.find("\"check\": \"AL007\""), std::string::npos);
  EXPECT_NE(json.find("\"translated\": true"), std::string::npos);
}

TEST(LintFramework, RenderJsonPinsSchemaAndCatalogueVersions) {
  // The JSON shape is versioned for downstream tooling: schema_version
  // pins the field layout (bump on rename/removal only), lint_pass_version
  // identifies the pass catalogue (also folded into the daemon cache key).
  const std::string json = lint_source(base_model()).render_json();
  EXPECT_EQ(json.find("{\n  \"schema_version\": 1,\n"
                      "  \"lint_pass_version\": 2,"),
            0u)
      << json;
  EXPECT_EQ(lint::kLintSchemaVersion, 1);
  EXPECT_EQ(lint::kLintPassVersion, 2);
}

TEST(LintFramework, RenderJsonCarriesCertificates) {
  const std::string json = lint_source(kOverloadModel).render_json();
  EXPECT_NE(json.find("\"certificates\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"utilization-overload\""),
            std::string::npos)
      << json;
}

// --- AL001 unbound-thread ---------------------------------------------------

TEST(LintModel, Al001FlagsUnboundThread) {
  // base_model without the binding property line.
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  thread T
  end T;
  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Deadline => 10 ms;
  end T.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    t : thread T.impl;
    cpu : processor Cpu;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL001");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_EQ(f->component, "t");
}

TEST(LintModel, Al001AcceptsBoundThread) {
  EXPECT_EQ(count_check(lint_source(base_model()), "AL001"), 0u);
}

// --- AL002 unresolved-endpoint ---------------------------------------------

TEST(LintModel, Al002FlagsMissingFeature) {
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port a.nosuch -> b.b_in;");
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL002");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_NE(f->message.find("no feature 'nosuch'"), std::string::npos);
}

TEST(LintModel, Al002FlagsDirectionMismatch) {
  // An in port as source and an out port as destination: two warnings.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port b.b_in -> a.a_out;");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(count_check(r, "AL002"), 2u) << r.render_text();
  EXPECT_EQ(first_check(r, "AL002")->severity, util::Severity::Warning);
}

TEST(LintModel, Al002AcceptsResolvedConnection) {
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port a.a_out -> b.b_in;");
  EXPECT_EQ(count_check(lint_source(src), "AL002"), 0u);
}

// --- AL003 dead-end-connection ---------------------------------------------

TEST(LintModel, Al003FlagsChainThatNeverReachesAThread) {
  // The thread's out port feeds the enclosing system's boundary port with
  // no continuation beyond it: instantiation silently drops the chain.
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  thread A
  features
    a_out : out data port;
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 10 ms;
  end A.impl;
  system S
  features
    sys_out : out data port;
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    cpu : processor Cpu;
  connections
    c1 : port a.a_out -> sys_out;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL003");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Warning);
  EXPECT_EQ(f->component, "a.a_out");
}

TEST(LintModel, Al003AcceptsThreadToThreadConnection) {
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port a.a_out -> b.b_in;");
  EXPECT_EQ(count_check(lint_source(src), "AL003"), 0u);
}

// --- AL004 missing-property -------------------------------------------------

TEST(LintModel, Al004FlagsMissingMandatoryProperties) {
  // Thread with neither Dispatch_Protocol nor Compute_Execution_Time, on a
  // processor without Scheduling_Protocol: three distinct errors.
  const std::string src = R"(
package P
public
  processor Cpu
  end Cpu;
  thread T
  end T;
  thread implementation T.impl
  properties
    Period => 10 ms;
  end T.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    t : thread T.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to t;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  EXPECT_EQ(count_check(r, "AL004"), 3u) << r.render_text();
  EXPECT_FALSE(r.translated);  // translation rejects the same model
}

TEST(LintModel, Al004AcceptsFullyAnnotatedModel) {
  EXPECT_EQ(count_check(lint_source(base_model()), "AL004"), 0u);
}

// --- AL005 inconsistent-timing ----------------------------------------------

TEST(LintModel, Al005FlagsDeadlineBeyondPeriod) {
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 5 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n");
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL005");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_NE(f->message.find("Deadline exceeds Period"), std::string::npos);
}

TEST(LintModel, Al005WcetBeyondDeadlineIsConclusivelyNotSchedulable) {
  // cmax 5 quanta > deadline 3 quanta: the thread cannot meet its deadline
  // even alone, a guaranteed counterexample.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 5 ms .. 5 ms;\n    Deadline => 3 ms;\n");
  const lint::Report r = lint_source(src);
  ASSERT_NE(first_check(r, "AL005"), nullptr) << r.render_text();
  EXPECT_EQ(r.verdict, lint::StaticVerdict::NotSchedulable);
  EXPECT_EQ(r.decided_by, "AL005");
}

TEST(LintModel, Al005AcceptsConsistentTiming) {
  EXPECT_EQ(count_check(lint_source(base_model()), "AL005"), 0u);
}

// --- AL006 queue-misconfig --------------------------------------------------

TEST(LintModel, Al006FlagsQueuePropertiesOnDataConnection) {
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port a.a_out -> b.b_in;",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Queue_Size => 4 applies to c1;\n");
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL006");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Warning);
  EXPECT_NE(f->message.find("data port"), std::string::npos);
}

TEST(LintModel, Al006FlagsOutOfRangeQueueSize) {
  const std::string src = two_thread_model(
      "    a_out : out event port;", "    b_in : in event port;",
      "    c1 : port a.a_out -> b.b_in;",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Dispatch_Protocol => Sporadic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Queue_Size => 0 applies to c1;\n");
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL006");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_NE(f->message.find("out of range"), std::string::npos);
}

TEST(LintModel, Al006AcceptsValidQueueOnSporadicDestination) {
  const std::string src = two_thread_model(
      "    a_out : out event port;", "    b_in : in event port;",
      "    c1 : port a.a_out -> b.b_in;",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Dispatch_Protocol => Sporadic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Queue_Size => 2 applies to c1;\n");
  EXPECT_EQ(count_check(lint_source(src), "AL006"), 0u);
}

// --- AL007 utilization-overload ---------------------------------------------

TEST(LintScreen, Al007OverloadIsConclusivelyNotSchedulable) {
  const lint::Report r = lint_source(kOverloadModel);
  const lint::Finding* f = first_check(r, "AL007");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_EQ(f->component, "cpu");
  EXPECT_EQ(r.verdict, lint::StaticVerdict::NotSchedulable);
  EXPECT_EQ(r.decided_by, "AL007");
  EXPECT_TRUE(r.translated);
}

TEST(LintScreen, Al007SporadicOverloadIsOnlyAWarning) {
  // Periodic load alone fits; adding the sporadic thread at its maximum
  // rate exceeds 1 — advisory only, never a conclusive verdict.
  const std::string src = two_thread_model(
      "    a_out : out event port;", "    b_in : in event port;",
      "    c1 : port a.a_out -> b.b_in;",
      "    Dispatch_Protocol => Periodic;\n    Period => 4 ms;\n"
      "    Compute_Execution_Time => 3 ms .. 3 ms;\n    Deadline => 4 ms;\n",
      "    Dispatch_Protocol => Sporadic;\n    Period => 4 ms;\n"
      "    Compute_Execution_Time => 2 ms .. 2 ms;\n    Deadline => 4 ms;\n");
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL007");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Warning);
  EXPECT_NE(r.verdict, lint::StaticVerdict::NotSchedulable);
}

TEST(LintScreen, Al007AcceptsFeasibleLoad) {
  EXPECT_EQ(count_check(lint_source(base_model()), "AL007"), 0u);
}

// --- AL008 rm-utilization-bound ---------------------------------------------

TEST(LintScreen, Al008VouchesForLowUtilizationRmProcessor) {
  const lint::Report r = lint_source(base_model());
  ASSERT_NE(first_check(r, "AL008"), nullptr) << r.render_text();
  // AL013's exact RTA vouches for the same processor; the first verdict
  // per processor (registration order) decides.
  ASSERT_GE(r.processor_verdicts.size(), 1u);
  EXPECT_EQ(r.processor_verdicts[0].check_id, "AL008");
  EXPECT_TRUE(r.processor_verdicts[0].schedulable);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL008");
}

TEST(LintScreen, Al008AbstainsWhenHyperbolicBoundFails) {
  // U = 4/9 + 4/10 = 0.844 but (13/9)(14/10) = 2.022 > 2: the sufficient
  // bound does not apply and AL008 stays silent. The exact RTA (AL013)
  // picks the model up instead — this is precisely the gap it closes.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 9 ms;\n"
      "    Compute_Execution_Time => 4 ms .. 4 ms;\n    Deadline => 9 ms;\n",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 4 ms .. 4 ms;\n    Deadline => 10 ms;\n");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(count_check(r, "AL008"), 0u) << r.render_text();
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL013");
}

TEST(LintScreen, Al008AbstainsOnImpureModel) {
  // An event connection makes the classical abstraction inexact: no vouch
  // even though the utilization is low.
  const std::string src = two_thread_model(
      "    a_out : out event port;", "    b_in : in event port;",
      "    c1 : port a.a_out -> b.b_in;",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n",
      "    Dispatch_Protocol => Sporadic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 1 ms .. 1 ms;\n    Deadline => 10 ms;\n");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(count_check(r, "AL008"), 0u) << r.render_text();
  EXPECT_EQ(r.verdict, lint::StaticVerdict::None);
}

// --- AL009 edf-utilization --------------------------------------------------

TEST(LintScreen, Al009VouchesForEdfAtExactlyFullUtilization) {
  const lint::Report r = lint_source(kEdfExactModel);
  ASSERT_NE(first_check(r, "AL009"), nullptr) << r.render_text();
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL009");
}

/// One EDF processor whose exact utilization fraction outgrows 128-bit
/// arithmetic: a 2^43-quanta WCET every quantum, then two slow threads
/// whose periods multiply the denominator past 2^86. U is about 8.8e12.
constexpr const char* kEdfHugeFractionModel = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => EDF_PROTOCOL;
  end Cpu;

  thread A
  end A;

  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 1 ms;
    Compute_Execution_Time => 8796093022208 ms .. 8796093022208 ms;
  end A.impl;

  thread B
  end B;

  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 8796093022207 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
  end B.impl;

  thread C
  end C;

  thread implementation C.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 8796093022201 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
  end C.impl;

  system S
  end S;

  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    c : thread C.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
    Actual_Processor_Binding => reference (cpu) applies to c;
  end S.impl;
end P;
)";

TEST(LintScreen, Al009AbstainsWhenTheExactFractionOutgrowsItsCap) {
  // The exact sum gives up past its cap instead of overflowing __int128
  // (a ubsan build reports the overflow) and reading U ~ 8.8e12 as <= 1.
  const lint::Report r = lint_source(kEdfHugeFractionModel);
  EXPECT_EQ(first_check(r, "AL009"), nullptr) << r.render_text();
  EXPECT_EQ(first_certificate(r, "AL009"), nullptr);
  for (const lint::ProcessorVerdict& v : r.processor_verdicts)
    EXPECT_FALSE(v.schedulable) << v.processor;
  EXPECT_NE(r.verdict, lint::StaticVerdict::Schedulable);
}

TEST(LintScreen, Al009AbstainsOnConstrainedDeadlines) {
  // Deadline < period: U <= 1 is no longer sufficient, so AL009 stays
  // silent. QPA (AL014) covers the constrained fragment exactly.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 2 ms .. 2 ms;\n    Deadline => 8 ms;\n",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 2 ms .. 2 ms;\n    Deadline => 10 ms;\n",
      "    Scheduling_Protocol => EDF_PROTOCOL applies to cpu;\n");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(count_check(r, "AL009"), 0u) << r.render_text();
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL014");
}

// --- AL013 exact-rta ---------------------------------------------------------

namespace {

/// Constrained-deadline RM model the exact RTA refutes: 'b' needs
/// 3 + ceil(t/4)*2 quanta of level demand inside its 4-quantum deadline
/// window, which never fits (U = 0.83, so AL007 cannot see it).
constexpr const char* kRtaMissModel = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  thread A
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Deadline => 4 ms;
  end A.impl;
  thread B
  end B;
  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 9 ms;
    Compute_Execution_Time => 3 ms .. 3 ms;
    Deadline => 4 ms;
  end B.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
  end S.impl;
end P;
)";

}  // namespace

TEST(LintExact, Al013VouchesWithResponseBoundCertificate) {
  // The AL008-gap model: hyperbolic bound fails at U = 0.844 but the exact
  // RTA proves schedulability outright.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 9 ms;\n"
      "    Compute_Execution_Time => 4 ms .. 4 ms;\n    Deadline => 9 ms;\n",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 4 ms .. 4 ms;\n    Deadline => 10 ms;\n");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL013");
  const lint::StaticCertificate* cert = first_certificate(r, "AL013");
  ASSERT_NE(cert, nullptr) << r.render_json();
  EXPECT_EQ(cert->kind, "fp-response-bound");
  ASSERT_EQ(cert->tasks.size(), 2u);
  for (const lint::CertTask& row : cert->tasks) {
    EXPECT_GE(row.response_q, row.wcet_q);
    EXPECT_LE(row.response_q, row.deadline_q);
  }
}

TEST(LintExact, Al013RefutesWithOverloadWitness) {
  const lint::Report r = lint_source(kRtaMissModel);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::NotSchedulable);
  EXPECT_EQ(r.decided_by, "AL013");
  const lint::StaticCertificate* cert = first_certificate(r, "AL013");
  ASSERT_NE(cert, nullptr) << r.render_json();
  EXPECT_EQ(cert->kind, "fp-overload-witness");
  EXPECT_FALSE(cert->schedulable);
  EXPECT_EQ(cert->window_q, 4);
  EXPECT_EQ(cert->demand_q, 5);
  EXPECT_EQ(cert->tasks[0].path, "b");  // witness row first
}

TEST(LintExact, Al013AbstainsFromRefutingUnderPriorityTies) {
  // RM/DM ranking always assigns distinct priorities (stable tie-break by
  // declaration order), so genuine ties only arise under HPF with equal
  // declared Priority values. There the tie-pessimistic vouch fails
  // (R = 10 > D = 8) and the refutation leg is unsound — exploration may
  // resolve the tie either way — so the pass must leave the verdict open.
  const std::string props =
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 5 ms .. 5 ms;\n    Deadline => 8 ms;\n"
      "    Priority => 5;\n";
  const std::string src =
      two_thread_model("", "", "", props, props, {}, "HIGHEST_PRIORITY_FIRST");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::None) << r.render_text();
  EXPECT_TRUE(r.certificates.empty());
}

TEST(LintExact, Al013AgreementWithExplorationBothWays) {
  core::AnalyzerOptions with_lint, without_lint;
  with_lint.translation.quantum_ns = 1'000'000;
  with_lint.run_lint = true;
  without_lint.translation.quantum_ns = 1'000'000;
  without_lint.run_lint = false;

  // Refuted model: exploration finds the same miss.
  const core::AnalysisResult fast =
      core::analyze_source(kRtaMissModel, "S.impl", with_lint);
  EXPECT_NE(fast.outcome, core::Outcome::Error) << fast.diagnostics;
  EXPECT_EQ(fast.states, 0u);
  EXPECT_EQ(fast.decided_by, "AL013");
  EXPECT_EQ(fast.outcome, core::Outcome::NotSchedulable);
  const core::AnalysisResult full =
      core::analyze_source(kRtaMissModel, "S.impl", without_lint);
  EXPECT_NE(full.outcome, core::Outcome::Error) << full.diagnostics;
  EXPECT_GT(full.states, 0u);
  EXPECT_EQ(full.outcome, fast.outcome);
}

// --- AL014 edf-qpa -----------------------------------------------------------

namespace {

/// EDF with constrained deadlines and a certain overflow: dbf(4) = 5 > 4
/// (both jobs due by t=4 need 5 quanta), while U = 0.5 keeps AL007 silent.
constexpr const char* kEdfOverflowModel = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => EDF_PROTOCOL;
  end Cpu;
  thread A
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 3 ms .. 3 ms;
    Deadline => 3 ms;
  end A.impl;
  thread B
  end B;
  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 2 ms .. 2 ms;
    Deadline => 4 ms;
  end B.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
  end S.impl;
end P;
)";

}  // namespace

TEST(LintExact, Al014VouchesConstrainedEdfWithDemandCertificate) {
  // The Al009-abstain model (deadline < period, U = 0.4): QPA decides it.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 2 ms .. 2 ms;\n    Deadline => 8 ms;\n",
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 2 ms .. 2 ms;\n    Deadline => 10 ms;\n",
      "    Scheduling_Protocol => EDF_PROTOCOL applies to cpu;\n");
  const lint::Report r = lint_source(src);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable);
  EXPECT_EQ(r.decided_by, "AL014");
  const lint::StaticCertificate* cert = first_certificate(r, "AL014");
  ASSERT_NE(cert, nullptr) << r.render_json();
  EXPECT_EQ(cert->kind, "edf-demand");
  EXPECT_GT(cert->window_q, 0);
}

TEST(LintExact, Al014RefutesWithOverflowWitness) {
  const lint::Report r = lint_source(kEdfOverflowModel);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::NotSchedulable);
  EXPECT_EQ(r.decided_by, "AL014");
  const lint::StaticCertificate* cert = first_certificate(r, "AL014");
  ASSERT_NE(cert, nullptr) << r.render_json();
  EXPECT_EQ(cert->kind, "edf-overflow-witness");
  EXPECT_EQ(cert->window_q, 4);
  EXPECT_EQ(cert->demand_q, 5);
}

TEST(LintExact, Al014AgreementWithExplorationOnRefutedModel) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;
  const core::AnalysisResult full =
      core::analyze_source(kEdfOverflowModel, "S.impl", opts);
  EXPECT_NE(full.outcome, core::Outcome::Error) << full.diagnostics;
  EXPECT_GT(full.states, 0u);
  // Exploration confirms the overflow.
  EXPECT_EQ(full.outcome, core::Outcome::NotSchedulable);
}

// --- AL015 blocking-rta / AL016 shared-access-hazard -------------------------

namespace {

/// Two fixed-priority tasks sharing one PCP resource with bounded critical
/// sections, rendered through the same bridge the experiments use.
std::string shared_pcp_source() {
  sched::TaskSet ts;
  sched::Task hi;
  hi.name = "hi";
  hi.wcet = 1;
  hi.period = 5;
  hi.deadline = 5;
  hi.priority = 10;
  sched::Task lo;
  lo.name = "lo";
  lo.wcet = 2;
  lo.period = 10;
  lo.deadline = 10;
  lo.priority = 5;
  ts.tasks = {hi, lo};
  sched::ResourceModel rm;
  rm.resources = {{"shared", sched::LockProtocol::PriorityCeiling}};
  rm.sections = {{0, 0, 1}, {1, 0, 1}};
  return core::taskset_to_aadl_shared(
      ts, sched::SchedulingPolicy::FixedPriority, rm);
}

}  // namespace

TEST(LintExact, Al015VouchesWithBlockingAwareCertificate) {
  const lint::Report r =
      lint_source(shared_pcp_source(), ms_options(), "Root.impl");
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable) << r.render_text();
  bool al015_vouched = false;
  for (const auto& pv : r.processor_verdicts)
    al015_vouched |= pv.check_id == "AL015" && pv.schedulable;
  EXPECT_TRUE(al015_vouched) << r.render_json();
  const lint::StaticCertificate* cert = first_certificate(r, "AL015");
  ASSERT_NE(cert, nullptr) << r.render_json();
  EXPECT_EQ(cert->kind, "fp-response-bound");
  // The high-priority task carries the blocking term (one lower-priority
  // section on a ceiling-reaching resource).
  bool blocked = false;
  for (const lint::CertTask& row : cert->tasks)
    blocked |= row.blocking_q > 0;
  EXPECT_TRUE(blocked) << r.render_json();
  EXPECT_EQ(count_check(r, "AL016"), 0u) << r.render_text();
}

TEST(LintExact, Al015AgreementWithExplorationOnSharedModel) {
  // Exploration walks the lock-free model; the blocking-aware vouch is a
  // strictly stronger claim, so the verdicts must coincide.
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;
  const core::AnalysisResult full =
      core::analyze_source(shared_pcp_source(), "Root.impl", opts);
  EXPECT_NE(full.outcome, core::Outcome::Error) << full.diagnostics;
  EXPECT_GT(full.states, 0u);
  EXPECT_EQ(full.outcome, core::Outcome::Schedulable);
}

TEST(LintExact, Al016FlagsUnprotectedAndCrossProcessorSharing) {
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  data Shared
  end Shared;
  thread A
  features
    r : requires data access Shared;
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 10 ms;
  end A.impl;
  thread B
  features
    r : requires data access Shared;
  end B;
  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 10 ms;
  end B.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    d : data Shared;
    cpu : processor Cpu;
    cpu2 : processor Cpu;
  connections
    ca : data access a.r -> d;
    cb : data access b.r -> d;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu2) applies to b;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  ASSERT_GE(count_check(r, "AL016"), 2u) << r.render_text();
  bool unprotected = false, cross = false;
  for (const lint::Finding& f : r.findings) {
    if (f.check_id != "AL016") continue;
    EXPECT_EQ(f.severity, util::Severity::Warning);
    unprotected |=
        f.message.find("without a concurrency-control protocol") !=
        std::string::npos;
    cross |= f.message.find("shared across") != std::string::npos;
  }
  EXPECT_TRUE(unprotected);
  EXPECT_TRUE(cross);
}

TEST(LintExact, Al016FlagsMissingSectionBoundButWarningsDoNotBlockVerdict) {
  // PCP resource with no Critical_Section_Time: AL015 abstains and AL016
  // warns, but warnings deliberately do not block the per-processor vouch
  // promotion (only errors do) — the verdict machinery ignores locking.
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  data Shared
  properties
    Concurrency_Control_Protocol => PRIORITY_CEILING_PROTOCOL;
  end Shared;
  thread A
  features
    r : requires data access Shared;
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 10 ms;
  end A.impl;
  thread B
  features
    r : requires data access Shared;
  end B;
  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 5 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 5 ms;
  end B.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    d : data Shared;
    cpu : processor Cpu;
  connections
    ca : data access a.r -> d;
    cb : data access b.r -> d;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
    Actual_Processor_Binding => reference (cpu) applies to b;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  ASSERT_GE(count_check(r, "AL016"), 2u) << r.render_text();
  EXPECT_NE(first_check(r, "AL016")->message.find("Critical_Section_Time"),
            std::string::npos);
  EXPECT_EQ(first_certificate(r, "AL015"), nullptr);  // abstained
  EXPECT_GT(r.warnings(), 0u);
  EXPECT_EQ(r.verdict, lint::StaticVerdict::Schedulable) << r.render_text();
}

TEST(LintExact, Al016FlagsUnknownProtocol) {
  const std::string src = R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  data Shared
  properties
    Concurrency_Control_Protocol => SPIN_LOCK;
  end Shared;
  thread A
  features
    r : requires data access Shared;
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 10 ms;
  end A.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    d : data Shared;
    cpu : processor Cpu;
  connections
    ca : data access a.r -> d;
  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
  end S.impl;
end P;
)";
  const lint::Report r = lint_source(src);
  const lint::Finding* f = first_check(r, "AL016");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_NE(f->message.find("unrecognized Concurrency_Control_Protocol"),
            std::string::npos);
}

// --- AL010 unguarded-recursion / AL011 par3-conflict -----------------------
//
// No longer lint passes: no model the translator accepts can trip them, so
// they are invariants of its output (tests/acsr_invariants.hpp), checked
// over every shipped model, the corpus and generated fleets in
// test_translator. These fixtures keep the two checks able to fire on
// hand-built networks.

namespace inv = aadlsched::acsr_invariants;

TEST(LintAcsr, Al010FlagsUnguardedSelfRecursion) {
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("P", {}, b.pick({b.call("P"), b.idle(b.nil())}));
  EXPECT_EQ(inv::unguarded_recursion(ctx), std::vector<std::string>{"P"});
}

TEST(LintAcsr, Al010FlagsMutualUnguardedRecursion) {
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("P", {}, b.call("Q"));
  b.def("Q", {}, b.call("P"));
  EXPECT_EQ(inv::unguarded_recursion(ctx).size(), 2u);
}

TEST(LintAcsr, Al010AcceptsGuardedRecursion) {
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("Q", {}, b.act({{"cpu", b.c(0)}}, b.call("Q")));
  b.def("R", {}, b.recv("go", b.c(1), b.call("R")));
  EXPECT_TRUE(inv::unguarded_recursion(ctx).empty());
}

TEST(LintAcsr, Al011FlagsSiblingsThatAlwaysShareAResource) {
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("A", {}, b.act({{"r", b.c(0)}}, b.call("A")));
  b.def("B", {}, b.act({{"r", b.c(1)}}, b.call("B")));
  b.def("Sys", {}, b.par({b.call("A"), b.call("B")}));
  const auto conflicts = inv::par3_conflicts(ctx);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].definition, "Sys");
  EXPECT_EQ(conflicts[0].resource, "r");
}

TEST(LintAcsr, Al011AcceptsDisjointResources) {
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("A", {}, b.act({{"r", b.c(0)}}, b.call("A")));
  b.def("B", {}, b.act({{"s", b.c(1)}}, b.call("B")));
  b.def("Sys", {}, b.par({b.call("A"), b.call("B")}));
  EXPECT_TRUE(inv::par3_conflicts(ctx).empty());
}

TEST(LintAcsr, Al011AcceptsChoiceThatCanAvoidTheSharedResource) {
  // A's must-use set is the intersection over its alternatives — empty, so
  // no conflict is certain and the check stays silent (under-approximation).
  acsr::Context ctx;
  acsr::Builder b(ctx);
  b.def("A", {}, b.pick({b.act({{"r", b.c(0)}}, b.call("A")),
                         b.act({{"s", b.c(0)}}, b.call("A"))}));
  b.def("B", {}, b.act({{"r", b.c(1)}}, b.call("B")));
  b.def("Sys", {}, b.par({b.call("A"), b.call("B")}));
  EXPECT_TRUE(inv::par3_conflicts(ctx).empty());
}

// --- AL012 instantaneous-cycle ----------------------------------------------

namespace {

std::string cycle_model(const std::string& cet) {
  return two_thread_model(
      "    a_in : in event port;\n    a_out : out event port;",
      "    b_in : in event port;\n    b_out : out event port;",
      "    c_ab : port a.a_out -> b.b_in;\n"
      "    c_ba : port b.b_out -> a.a_in;",
      "    Dispatch_Protocol => Aperiodic;\n"
      "    Compute_Execution_Time => " + cet + ";\n"
      "    Deadline => 20 ms;\n    Priority => 1;\n",
      "    Dispatch_Protocol => Aperiodic;\n"
      "    Compute_Execution_Time => " + cet + ";\n"
      "    Deadline => 20 ms;\n    Priority => 2;\n");
}

}  // namespace

TEST(LintAcsr, Al012FlagsInstantaneousEventCycle) {
  const lint::Report r = lint_source(cycle_model("0 ms .. 1 ms"));
  const lint::Finding* f = first_check(r, "AL012");
  ASSERT_NE(f, nullptr) << r.render_text();
  EXPECT_EQ(f->severity, util::Severity::Error);
  EXPECT_NE(f->message.find("a -> b -> a"), std::string::npos) << f->message;
}

TEST(LintAcsr, Al012AcceptsCycleWithNonZeroExecution) {
  // cmin of one quantum breaks the instantaneous chase: time must advance.
  const lint::Report r = lint_source(cycle_model("1 ms .. 1 ms"));
  EXPECT_EQ(count_check(r, "AL012"), 0u) << r.render_text();
}

// --- Analyzer integration ---------------------------------------------------

TEST(LintAnalyzer, ConclusiveOverloadSkipsExploration) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult r =
      core::analyze_source(kOverloadModel, "S.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable) << r.diagnostics;
  EXPECT_EQ(r.states, 0u);  // provably skipped exploration
  EXPECT_EQ(r.decided_by, "AL007");
  EXPECT_NE(r.summary().find("decided statically"), std::string::npos);
}

TEST(LintAnalyzer, DisablingLintRestoresFullExploration) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;
  const core::AnalysisResult r =
      core::analyze_source(kOverloadModel, "S.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_GT(r.states, 0u);
  // Exploration agrees with the static verdict.
  EXPECT_EQ(r.outcome, core::Outcome::NotSchedulable);
  EXPECT_TRUE(r.decided_by.empty());
}

TEST(LintAnalyzer, ConclusiveScheduableVerdictAgreesWithExploration) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult fast =
      core::analyze_source(kEdfExactModel, "S.impl", opts);
  EXPECT_NE(fast.outcome, core::Outcome::Error) << fast.diagnostics;
  EXPECT_EQ(fast.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(fast.states, 0u);
  EXPECT_EQ(fast.decided_by, "AL009");

  opts.run_lint = false;
  const core::AnalysisResult full =
      core::analyze_source(kEdfExactModel, "S.impl", opts);
  EXPECT_NE(full.outcome, core::Outcome::Error) << full.diagnostics;
  EXPECT_GT(full.states, 0u);
  EXPECT_EQ(full.outcome, fast.outcome);
}

TEST(LintAnalyzer, StaticVerdictCarriesCertificateInResultJson) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult r =
      core::analyze_source(kOverloadModel, "S.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.decided_by, "AL007");
  ASSERT_TRUE(r.lint_report.has_value());
  EXPECT_EQ(witness::check_all(*r.lint_report), "");
  const std::string json = core::render_result_json(r);
  EXPECT_NE(json.find("\"static_certificate\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"utilization-overload\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"check\": \"AL007\""), std::string::npos) << json;
}

TEST(LintAnalyzer, ExploredResultCarriesNoCertificate) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = false;
  const core::AnalysisResult r =
      core::analyze_source(kOverloadModel, "S.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(core::render_result_json(r).find("\"static_certificate\""),
            std::string::npos);
}

TEST(LintAnalyzer, SymmetricExampleIsNowDecidedStatically) {
  // The acceptance example: eight identical equal-priority threads were
  // previously explored (the symmetric fixture); tie-pessimistic
  // exact RTA now decides the model without a single state.
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/symmetric.aadl");
  ASSERT_TRUE(in);
  std::ostringstream src;
  src << in.rdbuf();
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult r =
      core::analyze_source(src.str(), "Symmetric.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_EQ(r.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(r.states, 0u);  // no exploration
  EXPECT_EQ(r.decided_by, "AL013");
  ASSERT_TRUE(r.lint_report.has_value());
  EXPECT_EQ(witness::check_all(*r.lint_report), "");
  const std::string json = core::render_result_json(r);
  EXPECT_NE(json.find("\"kind\": \"fp-response-bound\""), std::string::npos)
      << json;
}

TEST(LintAnalyzer, LintGateStopsAnalysisOnHygieneErrors) {
  // Missing mandatory properties trip the error-severity gate before any
  // translation or exploration is attempted.
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;", "",
      "    Period => 10 ms;\n");
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult r = core::analyze_source(src, "S.impl", opts);
  EXPECT_EQ(r.outcome, core::Outcome::Error);
  EXPECT_NE(r.diagnostics.find("AL004"), std::string::npos) << r.diagnostics;
}

TEST(LintAnalyzer, WarningsDoNotTripTheDefaultGate) {
  // Direction-mismatch warnings (AL002) are below the error-severity gate: analysis
  // proceeds to exploration as usual. Equal declared HPF priorities whose
  // tie-pessimistic RTA fails keep the model outside the statically
  // decidable fragment (AL013 cannot refute under ties), so exploration
  // genuinely runs.
  const std::string tie_props =
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 5 ms .. 5 ms;\n    Deadline => 8 ms;\n"
      "    Priority => 5;\n";
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port b.b_in -> a.a_out;", tie_props, tie_props, {},
      "HIGHEST_PRIORITY_FIRST");
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.run_lint = true;
  const core::AnalysisResult r = core::analyze_source(src, "S.impl", opts);
  EXPECT_NE(r.outcome, core::Outcome::Error) << r.diagnostics;
  EXPECT_GT(r.states, 0u);
  ASSERT_TRUE(r.lint_report.has_value());
  EXPECT_GT(r.lint_report->warnings(), 0u);
}

namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

bool is_rounding_warning(const std::string& line) {
  return line.find("; rounded ") != std::string::npos;
}

}  // namespace

TEST(LintAnalyzer, TranslationWarningsFollowLintFindingsOnce) {
  // Translation's validation runs once per request. Its warnings are
  // reported only when exploration runs, each once, after lint's findings.
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 2'000'000;  // 3 ms times round at 2 ms
  opts.run_lint = true;
  // Equal priorities whose tie-pessimistic RTA fails (2 + 2 quanta against
  // a 3-quantum deadline): no pass decides, so exploration runs.
  const std::string tie_props =
      "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
      "    Compute_Execution_Time => 3 ms .. 3 ms;\n    Deadline => 6 ms;\n"
      "    Priority => 5;\n";
  const std::string src = two_thread_model(
      "    a_out : out data port;", "    b_in : in data port;",
      "    c1 : port b.b_in -> a.a_out;", tie_props, tie_props, {},
      "HIGHEST_PRIORITY_FIRST");
  const core::AnalysisResult r = core::analyze_source(src, "S.impl", opts);
  ASSERT_GT(r.states, 0u) << r.diagnostics;  // explored, not decided
  const std::vector<std::string> lines = lines_of(r.diagnostics);
  std::size_t last_lint = 0, first_rounding = lines.size(), rounding = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("[AL") != std::string::npos) last_lint = i + 1;
    if (is_rounding_warning(lines[i])) {
      first_rounding = std::min(first_rounding, i);
      ++rounding;
    }
  }
  EXPECT_GT(last_lint, 0u) << r.diagnostics;  // AL002's direction warning
  EXPECT_EQ(rounding, 4u) << r.diagnostics;   // cmin and cmax of a and b
  EXPECT_GE(first_rounding, last_lint) << r.diagnostics;

  // Storm: at 2 ms it is explored and reports each of the 15 warnings
  // validation alone reports, exactly once; at 10 ms lint decides it and
  // no translation warning is reported.
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/storm.aadl");
  std::stringstream storm;
  storm << in.rdbuf();
  aadl::Model model;
  util::DiagnosticEngine fdiags("<storm>");
  ASSERT_TRUE(aadl::parse_aadl(model, storm.str(), fdiags));
  const auto inst = aadl::instantiate(model, "Storm.impl", fdiags);
  ASSERT_NE(inst, nullptr) << fdiags.render_all();
  util::DiagnosticEngine vdiags("<model>");
  ASSERT_TRUE(translate::validate(*inst, vdiags, opts.translation));
  std::vector<std::string> expected;
  for (const std::string& line : lines_of(vdiags.render_all()))
    if (is_rounding_warning(line)) expected.push_back(line);
  ASSERT_EQ(expected.size(), 15u) << vdiags.render_all();

  const core::AnalysisResult explored = core::analyze_instance(*inst, opts);
  ASSERT_TRUE(explored.decided_by.empty());
  std::vector<std::string> reported;
  for (const std::string& line : lines_of(explored.diagnostics))
    if (is_rounding_warning(line)) reported.push_back(line);
  EXPECT_EQ(reported, expected) << explored.diagnostics;

  opts.translation.quantum_ns = 10'000'000;
  const core::AnalysisResult decided = core::analyze_instance(*inst, opts);
  ASSERT_EQ(decided.decided_by, "AL007") << decided.diagnostics;
  for (const std::string& line : lines_of(decided.diagnostics))
    EXPECT_FALSE(is_rounding_warning(line)) << line;
}

// --- cross-validation: conclusive lint verdicts match exploration -----------

namespace {

/// Full-pipeline exploration verdict for rendered AADL source (mirrors
/// tests/test_cross_validation.cpp).
bool explore_source_verdict(const std::string& src) {
  aadl::Model model;
  util::DiagnosticEngine diags;
  EXPECT_TRUE(aadl::parse_aadl(model, src, diags)) << diags.render_all();
  auto inst = aadl::instantiate(model, "Root.impl", diags);
  EXPECT_NE(inst, nullptr);
  acsr::Context ctx;
  translate::TranslateOptions topts;
  topts.quantum_ns = 1'000'000;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  EXPECT_TRUE(tr.has_value()) << diags.render_all();
  acsr::Semantics sem(ctx);
  const auto er = versa::explore(sem, tr->initial);
  EXPECT_TRUE(er.complete || er.deadlock_found);
  return er.schedulable();
}

bool explore_verdict(const sched::TaskSet& ts,
                     sched::SchedulingPolicy policy) {
  return explore_source_verdict(core::taskset_to_aadl(ts, policy));
}

}  // namespace

TEST(LintCrossValidation, EdfScreeningVerdictsMatchExploration) {
  // Generated periodic implicit-deadline EDF workloads are always within
  // the exact screening fragment: lint must reach a conclusive verdict and
  // that verdict must agree with full state-space exploration.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sched::WorkloadSpec spec;
    spec.task_count = 3;
    spec.total_utilization = 0.9;
    spec.periods = {3, 4, 5, 6, 8};  // small hyperperiods
    const sched::TaskSet ts = sched::generate_workload(spec, seed);

    const std::string src =
        core::taskset_to_aadl(ts, sched::SchedulingPolicy::Edf);
    const lint::Report r = lint_source(src, ms_options(), "Root.impl");
    ASSERT_TRUE(r.translated) << "seed " << seed;
    ASSERT_NE(r.verdict, lint::StaticVerdict::None)
        << "seed " << seed << "\n" << r.render_text();

    const bool lint_schedulable =
        r.verdict == lint::StaticVerdict::Schedulable;
    EXPECT_EQ(lint_schedulable,
              explore_verdict(ts, sched::SchedulingPolicy::Edf))
        << "seed " << seed << " decided by " << r.decided_by;
  }
}

TEST(LintCrossValidation, FixedPriorityScreeningVerdictsMatchExploration) {
  // Distinct rate-monotonic priorities keep every generated model inside
  // AL013's conclusive fragment: the exact RTA must always decide, and
  // must agree with exploration in both directions (E1 matrix diagonal).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sched::WorkloadSpec spec;
    spec.task_count = 3;
    spec.total_utilization = 0.9;
    spec.periods = {3, 4, 5, 6, 8};
    sched::TaskSet ts = sched::generate_workload(spec, seed);
    sched::assign_rate_monotonic(ts);

    const std::string src =
        core::taskset_to_aadl(ts, sched::SchedulingPolicy::FixedPriority);
    const lint::Report r = lint_source(src, ms_options(), "Root.impl");
    ASSERT_TRUE(r.translated) << "seed " << seed;
    ASSERT_NE(r.verdict, lint::StaticVerdict::None)
        << "seed " << seed << "\n" << r.render_text();
    EXPECT_EQ(r.verdict == lint::StaticVerdict::Schedulable,
              explore_source_verdict(src))
        << "seed " << seed << " decided by " << r.decided_by;
  }
}

TEST(LintCrossValidation, SharedResourceModelsAgreeWithExploration) {
  // E1 extension: the same agreement matrix over shared-resource task
  // sets. Exploration walks the lock-free model; any conclusive lint
  // verdict (AL013's exact test, or AL015's strictly stronger
  // blocking-aware vouch) must agree with it.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sched::WorkloadSpec spec;
    spec.task_count = 3;
    spec.total_utilization = 0.8;
    spec.periods = {3, 4, 5, 6, 8};
    sched::TaskSet ts = sched::generate_workload(spec, seed);
    sched::assign_rate_monotonic(ts);

    sched::ResourceModel rm;
    rm.resources = {
        {"shared", seed % 2 ? sched::LockProtocol::PriorityCeiling
                            : sched::LockProtocol::PriorityInheritance}};
    rm.sections = {{0, 0, 1}, {ts.tasks.size() - 1, 0, 1}};

    const std::string src = core::taskset_to_aadl_shared(
        ts, sched::SchedulingPolicy::FixedPriority, rm);
    const lint::Report r = lint_source(src, ms_options(), "Root.impl");
    ASSERT_TRUE(r.translated) << "seed " << seed << "\n" << r.render_text();
    if (r.verdict == lint::StaticVerdict::None) continue;
    EXPECT_EQ(r.verdict == lint::StaticVerdict::Schedulable,
              explore_source_verdict(src))
        << "seed " << seed << " decided by " << r.decided_by;
  }
}
