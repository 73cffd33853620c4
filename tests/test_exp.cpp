// Tests for the experiment harness library (src/exp): spec parsing and
// validation, grid expansion, deterministic model rendering, the in-process
// runner, and report schema invariants. The cross-backend byte-identity
// contract is pinned end-to-end by tests/acceptance/exp_smoke.sh; these
// tests cover the library surface underneath it.
#include <gtest/gtest.h>

#include <string>

#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "util/json.hpp"

using namespace aadlsched;

namespace {

// --- spec parsing -------------------------------------------------------

TEST(ExpSpec, DefaultsApplyWhenAxesAreAbsent) {
  std::string error;
  const auto spec = exp::parse_experiment_spec("{}", error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->policies, std::vector<std::string>{"rm"});
  EXPECT_EQ(spec->task_counts, std::vector<std::size_t>{3});
  EXPECT_EQ(spec->seed_count, 10u);
  EXPECT_EQ(spec->max_states, 200'000u);
  EXPECT_TRUE(spec->run_lint);
}

TEST(ExpSpec, FullDocumentRoundTrips) {
  const std::string doc = R"({
    "name": "full",
    "grid": {
      "policy": ["rm", "dm", "edf", "llf"],
      "utilization": [0.4, 0.8],
      "task_count": [2, 5],
      "deadline_fraction": [0.5, 1.0],
      "quantum_ms": [1, 2],
      "engine": ["enumerative", "auto"],
      "processors": [1, 2]
    },
    "seeds": {"begin": 100, "count": 7},
    "periods": [4, 8, 16],
    "budget": {"max_states": 1234},
    "lint": false,
    "no_reduction": true,
    "bin_width": 0.05,
    "workers": 4
  })";
  std::string error;
  const auto spec = exp::parse_experiment_spec(doc, error);
  // "no_reduction" is a retired key: ignored, the document still parses.
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "full");
  EXPECT_EQ(spec->policies.size(), 4u);
  EXPECT_EQ(spec->seed_begin, 100u);
  EXPECT_EQ(spec->seed_count, 7u);
  EXPECT_EQ(spec->periods, (std::vector<sched::Time>{4, 8, 16}));
  EXPECT_EQ(spec->max_states, 1234u);
  EXPECT_FALSE(spec->run_lint);
  EXPECT_DOUBLE_EQ(spec->bin_width, 0.05);
  EXPECT_EQ(spec->workers, 4u);
  // 4 policies * 2 U * 2 n * 2 df * 2 quanta * 2 engines * 2 topologies.
  EXPECT_EQ(exp::expand_grid(*spec).size(), 256u);
}

TEST(ExpSpec, RejectsMalformedDocuments) {
  const auto rejects = [](const std::string& doc, const char* needle) {
    std::string error;
    EXPECT_FALSE(exp::parse_experiment_spec(doc, error).has_value()) << doc;
    EXPECT_NE(error.find(needle), std::string::npos)
        << doc << " -> " << error;
  };
  rejects("{", "JSON");
  rejects(R"({"grid": {"policy": ["fifo"]}})", "policy");
  rejects(R"({"grid": {"engine": ["zonal"]}})", "engine");
  rejects(R"({"grid": {"utilization": [0.0]}})", "utilization");
  rejects(R"({"grid": {"deadline_fraction": [1.5]}})", "deadline_fraction");
  rejects(R"({"grid": {"quantum_ms": [0]}})", "quantum_ms");
  rejects(R"({"grid": {"quantum_ms": [9300000000000]}})", "quantum_ms");
  rejects(R"({"grid": {"processors": [0]}})", "processors");
  rejects(R"({"grid": {"policy": []}})", "non-empty");
  rejects(R"({"seeds": {"count": 0}})", "count");
  rejects(R"({"bin_width": 0})", "bin_width");
}

// The regression that motivated this harness: an empty period set reached
// the generator and indexed out of bounds. It must now die at spec load
// with the generator's own diagnostic.
TEST(ExpSpec, EmptyPeriodSetIsASpecLoadError) {
  std::string error;
  EXPECT_FALSE(
      exp::parse_experiment_spec(R"({"periods": []})", error).has_value());
  EXPECT_NE(error.find("period"), std::string::npos) << error;
}

// Wall-clock budgets make outcomes machine-dependent, which would break the
// cross-backend byte-identity contract; the spec loader refuses them.
TEST(ExpSpec, WallClockBudgetsAreRefused) {
  std::string error;
  EXPECT_FALSE(
      exp::parse_experiment_spec(R"({"budget": {"deadline_ms": 100}})", error)
          .has_value());
  EXPECT_NE(error.find("max_states"), std::string::npos) << error;
}

TEST(ExpGrid, ExpansionIsDeterministicPolicyOutermost) {
  exp::ExperimentSpec spec;
  spec.policies = {"rm", "edf"};
  spec.utilizations = {0.3, 0.6};
  const auto cells = exp::expand_grid(spec);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].policy, "rm");
  EXPECT_DOUBLE_EQ(cells[0].utilization, 0.3);
  EXPECT_EQ(cells[1].policy, "rm");
  EXPECT_DOUBLE_EQ(cells[1].utilization, 0.6);
  EXPECT_EQ(cells[2].policy, "edf");
}

// --- model rendering ----------------------------------------------------

TEST(ExpModel, RenderIsDeterministicAndCarriesProvenance) {
  exp::ExperimentSpec spec;
  spec.name = "prov";
  exp::Cell cell{"rm", 0.6, 3, 1.0, 1, "enumerative", 1};
  std::string error;
  double realized = 0, drift = 0;
  const auto a = exp::render_model(spec, cell, 3, 7, error, &realized, &drift);
  ASSERT_TRUE(a.has_value()) << error;
  const auto b = exp::render_model(spec, cell, 3, 7, error);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);  // byte-identical across calls (and backends)
  EXPECT_NE(a->find("-- experiment: prov"), std::string::npos);
  EXPECT_NE(a->find("-- cell 3: policy=rm"), std::string::npos);
  EXPECT_NE(a->find("-- seed: 7"), std::string::npos);
  EXPECT_NE(a->find("package Gen"), std::string::npos);
  EXPECT_GT(realized, 0.0);
  EXPECT_NEAR(drift, realized - 0.6, 1e-12);

  const auto c = exp::render_model(spec, cell, 3, 8, error);
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(*a, *c);  // a different seed is a different model
}

TEST(ExpModel, ProcessorsAxisWidensTheTopology) {
  exp::ExperimentSpec spec;
  exp::Cell cell{"rm", 0.6, 4, 1.0, 1, "enumerative", 2};
  std::string error;
  const auto model = exp::render_model(spec, cell, 0, 1, error);
  ASSERT_TRUE(model.has_value()) << error;
  EXPECT_NE(model->find("cpu0 : processor GenCpu"), std::string::npos);
  EXPECT_NE(model->find("cpu1 : processor GenCpu"), std::string::npos);
}

// --- the in-process runner ----------------------------------------------

exp::ExperimentSpec tiny_spec() {
  exp::ExperimentSpec spec;
  spec.name = "tiny";
  spec.policies = {"rm"};
  spec.utilizations = {0.5};
  spec.task_counts = {2};
  spec.seed_begin = 1;
  spec.seed_count = 3;
  spec.workers = 2;
  return spec;
}

TEST(ExpRun, InProcessGridProducesVerdicts) {
  const auto spec = tiny_spec();
  const exp::ExperimentResult result = exp::run_experiment(spec, std::nullopt);
  EXPECT_EQ(result.backend, "in-process");
  EXPECT_EQ(result.total_runs, 3u);
  EXPECT_EQ(result.transport_failures, 0u);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_EQ(result.cells[0].runs.size(), 3u);
  for (const exp::RunOutcome& run : result.cells[0].runs) {
    EXPECT_TRUE(run.generated);
    EXPECT_FALSE(run.transport_failed);
    EXPECT_TRUE(run.outcome == "schedulable" ||
                run.outcome == "not-schedulable" ||
                run.outcome == "inconclusive")
        << run.outcome << " " << run.error;
    EXPECT_TRUE(run.decided_by_class == "static" ||
                run.decided_by_class == "enumerative")
        << run.decided_by_class;
    EXPECT_FALSE(run.result_json.empty());
    EXPECT_GT(run.realized_utilization, 0.0);
  }
}

TEST(ExpRun, VerdictDataIsDeterministicAcrossRuns) {
  const auto spec = tiny_spec();
  const auto a = exp::run_experiment(spec, std::nullopt);
  const auto b = exp::run_experiment(spec, std::nullopt);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t c = 0; c < a.cells.size(); ++c)
    for (std::size_t r = 0; r < a.cells[c].runs.size(); ++r) {
      const exp::RunOutcome& x = a.cells[c].runs[r];
      const exp::RunOutcome& y = b.cells[c].runs[r];
      EXPECT_EQ(x.seed, y.seed);
      EXPECT_EQ(x.outcome, y.outcome);
      EXPECT_EQ(x.decided_by_class, y.decided_by_class);
      EXPECT_EQ(x.decided_by_ids, y.decided_by_ids);
      EXPECT_EQ(x.result_json, y.result_json);
      EXPECT_DOUBLE_EQ(x.realized_utilization, y.realized_utilization);
    }
}

// --- report schema ------------------------------------------------------

TEST(ExpReport, SchemaAndTalliesHold) {
  const auto spec = tiny_spec();
  const auto result = exp::run_experiment(spec, std::nullopt);
  const std::string report = exp::render_report(spec, result);

  std::string error;
  const auto doc = util::parse_json(report, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get("schema_version")->as_int(), exp::kReportSchemaVersion);
  EXPECT_EQ(doc->get("name")->as_string(), "tiny");
  EXPECT_EQ(doc->get("backend")->as_string(), "in-process");

  const auto& cells = doc->get("cells")->as_array();
  ASSERT_EQ(cells.size(), 1u);
  const util::JsonValue* verdicts = cells[0].get("verdicts");
  ASSERT_NE(verdicts, nullptr);
  const auto& runs = verdicts->get("runs")->as_array();
  EXPECT_EQ(runs.size(), 3u);

  // Outcome tally covers every run, acceptance matches it.
  const auto& outcomes = verdicts->get("outcomes")->as_object();
  std::int64_t tally = 0;
  for (const auto& [k, v] : outcomes) tally += v.as_int();
  EXPECT_EQ(tally, 3);
  const double acceptance = verdicts->get("acceptance")->as_double();
  EXPECT_NEAR(acceptance,
              static_cast<double>(outcomes.at("schedulable").as_int()) / 3.0,
              1e-9);

  // decided_by breakdown covers every run too.
  std::int64_t decided = 0;
  for (const auto& [k, v] : verdicts->get("decided_by")->as_object())
    decided += v.as_int();
  EXPECT_EQ(decided, 3);

  // The curve bins every generated run and never over-counts acceptances.
  std::int64_t curve_runs = 0;
  for (const util::JsonValue& bin : doc->get("curve")->as_array()) {
    curve_runs += bin.get("runs")->as_int();
    EXPECT_LE(bin.get("schedulable")->as_int(), bin.get("runs")->as_int());
    EXPECT_LT(bin.get("bin_lo")->as_double(), bin.get("bin_hi")->as_double());
  }
  EXPECT_EQ(curve_runs, 3);

  // Timing lives outside the verdict data.
  EXPECT_NE(doc->get("timing"), nullptr);
  ASSERT_NE(cells[0].get("timing"), nullptr);
  EXPECT_NE(cells[0].get("timing")->get("p95_ms"), nullptr);
}

}  // namespace
