#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "aadl/fingerprint.hpp"
#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/context.hpp"
#include "acsr/semantics.hpp"
#include "core/analyzer.hpp"
#include "core/result_json.hpp"
#include "exp/runner.hpp"
#include "host.hpp"
#include "lint/lint.hpp"
#include "oracle.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "trace.hpp"
#include "translate/translator.hpp"
#include "util/json.hpp"
#include "versa/explorer.hpp"

namespace perfbench {

namespace {

namespace aadl = aadlsched::aadl;
namespace acsr = aadlsched::acsr;
namespace core = aadlsched::core;
namespace exp = aadlsched::exp;
namespace lint = aadlsched::lint;
namespace server = aadlsched::server;
namespace translate = aadlsched::translate;
namespace util = aadlsched::util;
namespace versa = aadlsched::versa;

using Scope = Tracer::Scope;

// Time-based windows stay well under a second, so host drift inside one
// window is small next to drift across a run.
constexpr double kWindowMs = 500;
// serve_edit windows hold a fixed number of requests, hence of edits.
constexpr std::size_t kServeWindowRequests = 128;
constexpr std::size_t kServeTracedWindowRequests = 64;
constexpr std::size_t kServeWarmupRequests = 64;
constexpr std::size_t kEditEvery = 8;  // one request in 8 is an edit
constexpr int kSetupRepeats = 5;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

std::string verdict_name(bool schedulable) {
  return std::string(core::to_string(schedulable
                                         ? core::Outcome::Schedulable
                                         : core::Outcome::NotSchedulable));
}

/// Every operation's verdict against its oracle.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation; `describe` names the model when it failed.
  template <typename Describe>
  void expect(bool ok, Describe&& describe) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(describe());
  }
};

/// What the decomposed pipeline saw on one model.
struct PipelineRun {
  bool decided_by_lint = false;
  bool schedulable = false;
  versa::ExploreResult explore;
  std::size_t terms = 0;
  std::size_t context_bytes = 0;
};

/// lint -> translate -> explore under spans, the default enumerative path
/// of core::analyze_instance (serial engine, no checkpoint). nullopt when
/// it reaches no verdict.
std::optional<PipelineRun> run_pipeline(Tracer& t,
                                        const aadl::InstanceModel& inst,
                                        const core::AnalyzerOptions& opts) {
  PipelineRun run;
  util::DiagnosticEngine diags("<pipeline>");
  lint::Report report;
  {
    Scope s(t, "lint.run");
    lint::Options lo = opts.lint;
    lo.translation = opts.translation;
    lo.diags = &diags;
    report = lint::run(inst, lo);
  }
  if (report.translated && report.verdict != lint::StaticVerdict::None) {
    run.decided_by_lint = true;
    run.schedulable = report.verdict == lint::StaticVerdict::Schedulable;
    return run;
  }
  auto ctx = std::make_unique<acsr::Context>();
  std::optional<translate::Translation> tr;
  {
    Scope s(t, "translate");
    tr = translate::translate(*ctx, inst, diags, opts.translation);
  }
  if (!tr) return std::nullopt;
  auto sem = std::make_unique<acsr::Semantics>(*ctx);
  {
    Scope s(t, "versa.explore");
    run.explore = versa::explore(*sem, tr->initial, opts.exploration);
  }
  run.terms = ctx->terms().size();
  run.context_bytes = ctx->approx_bytes();
  {
    // Freeing the explored state space is a cost of every verdict too.
    Scope s(t, "acsr.teardown");
    sem.reset();
    ctx.reset();
  }
  if (!run.explore.complete && !run.explore.deadlock_found)
    return std::nullopt;
  run.schedulable = run.explore.schedulable();
  return run;
}

/// Parse + instantiate under spans; null on a front-end error.
std::unique_ptr<aadl::InstanceModel> front_end(Tracer& t,
                                               const std::string& text,
                                               aadl::Model& model) {
  util::DiagnosticEngine diags("<aadl>");
  {
    Scope s(t, "aadl.parse");
    if (!aadl::parse_aadl(model, text, diags)) return nullptr;
  }
  Scope s(t, "aadl.instantiate");
  auto inst = aadl::instantiate(model, kCruiseRoot, diags);
  return diags.has_errors() ? nullptr : std::move(inst);
}

/// Median of a span's corrected durations (self times when `self`).
double span_ms(const Tracer& t, const std::string& name, bool self = true) {
  const auto all = t.by_name(self);
  const auto it = all.find(name);
  return it == all.end() ? 0 : median(it->second);
}

/// Sum over each request of the named spans' corrected durations.
std::map<std::uint64_t, double> per_request_ms(
    const Tracer& t, const std::set<std::string>& names) {
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < t.spans().size(); ++i)
    if (names.count(t.spans()[i].name))
      out[t.spans()[i].request] += t.corrected_ms(static_cast<int>(i));
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Threads the workload keeps busy: the reference kernel runs on as many.
  virtual std::size_t ref_threads() const = 0;
  /// Tail percentile with >= 10 samples beyond it at the run length used.
  virtual double tail_quantile() const = 0;
  /// Set-up before timing starts, including one untimed warm-up pass.
  virtual void setup() = 0;
  virtual void teardown() {}
  /// Generates the next operation's input; runs outside the timed span.
  virtual void prepare() {}
  /// One closed-loop operation; returns the verdicts it completed.
  virtual std::size_t op() = 0;
  /// The same operation, decomposed into layer calls under spans.
  virtual std::size_t traced_op(Tracer& t) = 0;
  virtual bool window_full(std::size_t ops, double ms, bool traced) const {
    (void)ops;
    (void)traced;
    return ms >= kWindowMs;
  }
  /// Spans of the untraced operation, for the tracing overhead.
  virtual std::vector<std::string> op_spans() const = 0;
  /// Per-layer metrics of a traced segment, plus accounting lines.
  virtual void layers(const Tracer& t, std::vector<Metric>& out,
                      std::vector<std::string>& context) const = 0;
  /// Sum of the layer self times one untraced operation is made of.
  virtual double accounted_ms(const Tracer& t) const = 0;

  Checks checks;
};

// --- verify_cruise ---------------------------------------------------------

class VerifyCruise final : public Workload {
 public:
  explicit VerifyCruise(const Options& o)
      : text_(read_model("cruise_control.aadl")),
        expected_(o.wrong_oracle ? !kCruiseSchedulable : kCruiseSchedulable) {
    // The aadlsched CLI defaults: lint on, enumerative engine, one worker,
    // reductions on; only the quantum differs.
    opts_.translation.quantum_ns = 2'000'000;
    opts_.run_lint = true;
  }

  std::size_t ref_threads() const override { return 1; }
  // A verdict takes ~0.2-0.3 s, so a run holds ~100 of them: p80 is the
  // highest percentile sure to have ten samples beyond it.
  double tail_quantile() const override { return 0.8; }
  void setup() override { op(); }

  std::size_t op() override {
    check(core::analyze_source(text_, kCruiseRoot, opts_).outcome, true);
    return 1;
  }

  std::size_t traced_op(Tracer& t) override {
    Scope op(t, "op");
    core::AnalysisResult r;
    {
      Scope s(t, "core.analyze");
      r = core::analyze_source(text_, kCruiseRoot, opts_);
    }
    {
      Scope s(t, "core.render");
      core::render_result_json(r);
    }
    bool agree = false;
    {
      Scope p(t, "pipeline");
      aadl::Model model;
      auto inst = front_end(t, text_, model);
      const auto run = inst ? run_pipeline(t, *inst, opts_) : std::nullopt;
      agree = run && run->schedulable ==
                         (r.outcome == core::Outcome::Schedulable);
      if (run && !run->decided_by_lint) last_ = *run;
    }
    check(r.outcome, agree);
    return 1;
  }

  std::vector<std::string> op_spans() const override {
    return {"core.analyze"};
  }

  void layers(const Tracer& t, std::vector<Metric>& out,
              std::vector<std::string>& context) const override {
    const double explore_ms = span_ms(t, "versa.explore");
    const double states = static_cast<double>(last_.explore.states);
    const auto& sem = last_.explore.sem_stats;
    const double fans = static_cast<double>(sem.computed + sem.memo_hits);
    out.push_back({"acsr.terms_per_state",
                   static_cast<double>(last_.terms) / states, "terms/state"});
    out.push_back({"acsr.bytes_per_state",
                   static_cast<double>(last_.context_bytes) / states,
                   "B/state"});
    out.push_back({"acsr.teardown_ms", span_ms(t, "acsr.teardown"), "ms"});
    out.push_back({"versa.explore_ms", explore_ms, "ms"});
    out.push_back({"versa.states_per_s", states / (explore_ms / 1000), "1/s"});
    out.push_back({"versa.states", states, "count"});
    out.push_back({"versa.transitions",
                   static_cast<double>(last_.explore.transitions), "count"});
    out.push_back({"versa.memo_hit_rate",
                   fans > 0 ? static_cast<double>(sem.memo_hits) / fans : 0,
                   "fraction"});
    out.push_back({"versa.peak_frontier",
                   static_cast<double>(last_.explore.peak_frontier), "count"});
    context.push_back("verify_cruise traced: core.analyze p50 " +
                      fmt(span_ms(t, "core.analyze", false)) +
                      " ms = parse+instantiate+lint+translate+explore+"
                      "teardown " +
                      fmt(accounted_ms(t)) + " ms + orchestration; " +
                      std::to_string(t.by_name(false)["op"].size()) + " ops");
  }

  double accounted_ms(const Tracer& t) const override {
    double sum = 0;
    for (const char* n : {"aadl.parse", "aadl.instantiate", "lint.run",
                          "translate", "versa.explore", "acsr.teardown"})
      sum += span_ms(t, n);
    return sum;
  }

 private:
  void check(core::Outcome got, bool pipeline_agrees) {
    const bool want = expected_;
    const bool ok =
        got == (want ? core::Outcome::Schedulable
                     : core::Outcome::NotSchedulable) &&
        pipeline_agrees;
    checks.expect(ok, [&] {
      return "verify_cruise model cruise_control.aadl @ 2 ms: got " +
             std::string(core::to_string(got)) +
             (pipeline_agrees ? "" : " (decomposed pipeline disagrees)") +
             ", oracle says " + verdict_name(want);
    });
  }

  std::string text_;
  bool expected_;
  core::AnalyzerOptions opts_;
  PipelineRun last_;
};

// --- sweep_fleet -----------------------------------------------------------

class SweepFleet final : public Workload {
 public:
  // Every 8th model of the population is decomposed in a traced pass.
  static constexpr std::size_t kTraceSampleStride = 8;

  explicit SweepFleet(const Options& o)
      : spec_(fleet_spec(1 + 10 * o.seed)), cells_(exp::expand_grid(spec_)) {
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      for (std::uint64_t k = 0; k < spec_.seed_count; ++k) {
        const auto want =
            fleet_schedulable(spec_, cells_[ci], spec_.seed_begin + k);
        if (!want)
          throw std::runtime_error("sweep_fleet: no oracle for cell " +
                                   std::to_string(ci));
        expected_.push_back(*want);
      }
    }
    if (o.wrong_oracle) expected_[0] = !expected_[0];
  }

  std::size_t ref_threads() const override { return spec_.workers; }
  // A pass takes ~0.2-0.4 s, so a run holds ~60-100 of them: p80 is the
  // highest percentile with ten samples beyond it.
  double tail_quantile() const override { return 0.8; }
  void setup() override { op(); }

  std::size_t op() override {
    check(exp::run_experiment(spec_, std::nullopt));
    return expected_.size();
  }

  std::size_t traced_op(Tracer& t) override {
    Scope op(t, "op");
    exp::ExperimentResult res;
    {
      Scope s(t, "exp.run_experiment");
      res = exp::run_experiment(spec_, std::nullopt);
    }
    check(res);
    Scope p(t, "pipeline");
    core::AnalyzerOptions opts;
    opts.translation.quantum_ns = 1'000'000;
    for (std::size_t i = sample_offset_; i < expected_.size();
         i += kTraceSampleStride) {
      const std::size_t ci = i / spec_.seed_count;
      const std::uint64_t seed = spec_.seed_begin + i % spec_.seed_count;
      std::string error;
      std::optional<std::string> text;
      {
        Scope s(t, "exp.render_model");
        text = exp::render_model(spec_, cells_[ci], ci, seed, error);
      }
      if (!text) continue;
      aadl::Model model;
      util::DiagnosticEngine diags("<fleet>");
      std::unique_ptr<aadl::InstanceModel> inst;
      {
        Scope s(t, "aadl.parse");
        aadl::parse_aadl(model, *text, diags);
      }
      {
        Scope s(t, "aadl.instantiate");
        inst = aadl::instantiate(model, "Root.impl", diags);
      }
      if (!inst) continue;
      lint::Report report;
      {
        Scope s(t, "lint.run");
        lint::Options lo;
        lo.translation = opts.translation;
        report = lint::run(*inst, lo);
      }
      ++linted_;
      if (report.translated && report.verdict != lint::StaticVerdict::None)
        ++lint_decided_;
      {
        Scope s(t, "acsr.context");
        acsr::Context empty;
      }
    }
    sample_offset_ = (sample_offset_ + 1) % kTraceSampleStride;
    return expected_.size();
  }

  std::vector<std::string> op_spans() const override {
    return {"exp.run_experiment"};
  }

  void layers(const Tracer& t, std::vector<Metric>& out,
              std::vector<std::string>& context) const override {
    out.push_back({"exp.render_model_us", span_ms(t, "exp.render_model") * 1e3,
                   "us"});
    out.push_back({"lint.run_us", span_ms(t, "lint.run") * 1e3, "us"});
    out.push_back({"lint.decided_share",
                   linted_ ? static_cast<double>(lint_decided_) /
                                 static_cast<double>(linted_)
                           : 0,
                   "fraction"});
    out.push_back({"acsr.context_us", span_ms(t, "acsr.context") * 1e3, "us"});
    context.push_back(
        "sweep_fleet traced: pass p50 " +
        fmt(span_ms(t, "exp.run_experiment", false)) +
        " ms; per-model render+parse+instantiate+lint " +
        fmt(accounted_ms(t) /
                          static_cast<double>(expected_.size()) * 1e3 *
                          static_cast<double>(spec_.workers)) +
        " us on " + std::to_string(linted_) + " sampled models");
  }

  double accounted_ms(const Tracer& t) const override {
    // Per-model layer costs times the population, spread over the workers.
    double per_model = 0;
    for (const char* n :
         {"exp.render_model", "aadl.parse", "aadl.instantiate", "lint.run"})
      per_model += span_ms(t, n);
    return per_model * static_cast<double>(expected_.size()) /
           static_cast<double>(spec_.workers);
  }

 private:
  void check(const exp::ExperimentResult& res) {
    std::size_t i = 0;
    for (std::size_t ci = 0; ci < res.cells.size(); ++ci) {
      for (const exp::RunOutcome& run : res.cells[ci].runs) {
        const bool want = expected_.at(i++);
        const auto got = core::outcome_from_string(run.outcome);
        checks.expect(got == (want ? core::Outcome::Schedulable
                                   : core::Outcome::NotSchedulable),
                      [&] {
                        const exp::Cell& c = res.cells[ci].cell;
                        std::ostringstream what;
                        what << "sweep_fleet model c" << ci << "-s"
                             << run.seed << " (policy=" << c.policy
                             << " utilization=" << c.utilization
                             << " task_count=" << c.task_count
                             << " deadline_fraction=" << c.deadline_fraction
                             << "): got " << run.outcome << ", oracle says "
                             << verdict_name(want);
                        return what.str();
                      });
      }
    }
    if (i != expected_.size())
      checks.expect(false, [&] {
        return "sweep_fleet: pass returned " + std::to_string(i) + " of " +
               std::to_string(expected_.size()) + " models";
      });
  }

  exp::ExperimentSpec spec_;
  std::vector<exp::Cell> cells_;
  std::vector<bool> expected_;  // cell-major, seed-minor
  std::size_t sample_offset_ = 0;
  std::size_t linted_ = 0;
  std::size_t lint_decided_ = 0;
};

// --- serve_edit ------------------------------------------------------------

class ServeEdit final : public Workload {
 public:
  static constexpr int kQuantumMs = 5;

  explicit ServeEdit(const Options& o)
      : variants_(read_model("cruise_control.aadl")),
        seed_(o.seed),
        wrong_oracle_(o.wrong_oracle),
        work_dir_(o.work_dir) {}

  ~ServeEdit() override { teardown(); }

  std::size_t ref_threads() const override { return 1; }
  double tail_quantile() const override { return 0.99; }

  void setup() override {
    reset_session();
    dir_ = work_dir_ + "/serve-" + std::to_string(getpid()) + "-" +
           std::to_string(++setups_);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    server::ServiceConfig cfg;
    cfg.workers = 1;
    cfg.cache.disk_dir = dir_;
    service_ = std::make_unique<server::Service>(cfg);
    tcp_ = std::make_unique<server::TcpServer>(*service_, server::TcpConfig{});
    std::string error;
    if (!tcp_->start(error))
      throw std::runtime_error("serve_edit: listen failed: " + error);
    client_ = std::make_unique<server::Client>();
    if (!client_->connect("127.0.0.1", tcp_->port(), error))
      throw std::runtime_error("serve_edit: connect failed: " + error);
    for (std::size_t i = 0; i < kServeWarmupRequests; ++i) {
      prepare();
      op();
    }
  }

  void teardown() override {
    if (client_) client_->close();
    client_.reset();
    if (tcp_) tcp_->stop();
    tcp_.reset();
    if (service_) service_->shutdown();
    service_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

  void prepare() override { pending_ = &next(); }

  std::size_t op() override {
    const Variant& v = *pending_;
    std::string line, error;
    if (!client_->roundtrip(v.line, line, error))
      throw std::runtime_error("serve_edit: roundtrip failed: " + error);
    check(v, line);
    return 1;
  }

  std::size_t traced_op(Tracer& t) override {
    Scope op(t, "op");
    const Variant& v = *pending_;
    std::string line, error;
    bool sent = false;
    int roundtrip = -1;
    {
      Scope s(t, "server.roundtrip");
      roundtrip = s.id();
      sent = client_->roundtrip(v.line, line, error);
    }
    if (!sent)
      throw std::runtime_error("serve_edit: roundtrip failed: " + error);
    const auto resp = check(v, line);
    const bool hit = resp && resp->cached && resp->cache_tier == "memory";
    t.rename(roundtrip,
             hit ? "server.roundtrip_hit" : "server.roundtrip_cold");
    {
      Scope s(t, "server.parse_request");
      std::string perr;
      server::parse_request(v.line, perr);
    }
    if (resp) {
      Scope s(t, "server.render_response");
      server::render_response(*resp);
    }
    aadl::Model model;
    auto inst = front_end(t, v.text, model);
    if (inst) {
      Scope s(t, "aadl.fingerprint");
      aadl::instance_fingerprint(*inst);
    }
    if (hit) {
      Scope s(t, "server.handle");
      service_->handle_line(v.line);
      ++handled_;
    } else if (inst) {
      core::AnalyzerOptions opts;
      opts.translation.quantum_ns = kQuantumMs * 1'000'000;
      opts.run_lint = true;
      core::AnalysisResult r;
      {
        Scope s(t, "core.analyze");
        r = core::analyze_source(v.text, kCruiseRoot, opts);
      }
      {
        Scope s(t, "core.render");
        core::render_result_json(r);
      }
      std::optional<PipelineRun> run;
      {
        Scope p(t, "pipeline");
        run = run_pipeline(t, *inst, opts);
      }
      const bool agree =
          run && run->schedulable == (r.outcome == core::Outcome::Schedulable);
      if (!agree)
        checks.expect(false, [&] {
          return "serve_edit variant " + v.name +
                 ": decomposed pipeline disagrees with analyze_source";
        });
    }
    return 1;
  }

  bool window_full(std::size_t ops, double, bool traced) const override {
    return ops >= (traced ? kServeTracedWindowRequests : kServeWindowRequests);
  }

  std::vector<std::string> op_spans() const override {
    return {"server.roundtrip_hit", "server.roundtrip_cold"};
  }

  void layers(const Tracer& t, std::vector<Metric>& out,
              std::vector<std::string>& context) const override {
    out.push_back({"aadl.parse_us", span_ms(t, "aadl.parse") * 1e3, "us"});
    out.push_back(
        {"aadl.instantiate_us", span_ms(t, "aadl.instantiate") * 1e3, "us"});
    out.push_back(
        {"aadl.fingerprint_us", span_ms(t, "aadl.fingerprint") * 1e3, "us"});
    out.push_back({"translate.us", span_ms(t, "translate") * 1e3, "us"});
    // core.self: analyze minus the layers it is made of, per cold request.
    const auto analyze = per_request_ms(t, {"core.analyze"});
    const auto parts =
        per_request_ms(t, {"aadl.parse", "aadl.instantiate", "lint.run",
                           "translate", "versa.explore", "acsr.teardown"});
    std::vector<double> self;
    for (const auto& [req, ms] : analyze) self.push_back(ms - parts.at(req));
    out.push_back({"core.analyze_ms", span_ms(t, "core.analyze"), "ms"});
    out.push_back({"core.self_ms", median(self), "ms"});
    out.push_back({"core.render_us", span_ms(t, "core.render") * 1e3, "us"});
    const double hit_us = span_ms(t, "server.roundtrip_hit") * 1e3;
    const double handle_us = span_ms(t, "server.handle") * 1e3;
    out.push_back({"server.roundtrip_hit_us", hit_us, "us"});
    out.push_back({"server.roundtrip_cold_ms",
                   span_ms(t, "server.roundtrip_cold"), "ms"});
    out.push_back({"server.handle_hit_us", handle_us, "us"});
    out.push_back({"server.socket_us", hit_us - handle_us, "us"});
    out.push_back({"server.parse_request_us",
                   span_ms(t, "server.parse_request") * 1e3, "us"});
    out.push_back({"server.render_response_us",
                   span_ms(t, "server.render_response") * 1e3, "us"});
    // The stats op counts the traced run's own handle_line calls too; every
    // one of them was a memory hit, so take them out of both counts.
    const double requests = stat("analyze_requests") - double(handled_);
    const double hits = stat("cache", "hits_memory") - double(handled_);
    out.push_back({"server.memory_hit_share",
                   requests > 0 ? hits / requests : 0, "fraction"});
    out.push_back({"server.disk_writes", stat("cache", "stores"), "count"});
    out.push_back({"server.disk_store_failures",
                   stat("cache", "disk_store_failures"), "count"});
    context.push_back(
        "serve_edit traced: hit roundtrip p50 " + fmt(hit_us) +
        " us = socket " + fmt(hit_us - handle_us) +
        " us + handle " + fmt(handle_us) +
        " us; front end (parse+instantiate+fingerprint) " +
        fmt((span_ms(t, "aadl.parse") +
                           span_ms(t, "aadl.instantiate") +
                           span_ms(t, "aadl.fingerprint")) *
                          1e3) +
        " us");
  }

  double accounted_ms(const Tracer& t) const override {
    // A hit: the socket plus the server's front end and codec.
    double sum = span_ms(t, "server.roundtrip_hit") - span_ms(t, "server.handle");
    for (const char* n : {"aadl.parse", "aadl.instantiate", "aadl.fingerprint",
                          "server.parse_request", "server.render_response"})
      sum += span_ms(t, n);
    return sum;
  }

 private:
  struct Variant {
    std::string name;  // the upper bounds, for failure messages
    std::string text;
    std::string line;  // the analyze request
    bool expected = false;
  };

  void reset_session() {
    values_.seed(seed_);
    edits_ = 0;
    current_ = CruiseVariants::shipped();
    seen_ = {current_};
    recent_.clear();
    requests_ = 0;
  }

  // Whole quanta an upper bound `d` ms above the lower bound adds (the
  // lower bounds are multiples of the quantum).
  static int quanta(int d) { return (d + kQuantumMs - 1) / kQuantumMs; }
  // A random millisecond offset that adds exactly `q` quanta.
  int offset(int q) {
    return q == 0 ? 0
                  : (q - 1) * kQuantumMs + 1 +
                        static_cast<int>(values_() % kQuantumMs);
  }

  /// The next request of the session: every kEditEvery-th one a variant
  /// never requested before, the others a repeat of one of the last 8.
  ///
  /// An edit changes one thread's upper bound. Which thread, and by how
  /// many quanta, comes from a fixed script of kScriptEdits edits that is
  /// the same for every seed and replays in a loop: the analysis work of
  /// an edit depends only on the quanta, and a seeded walk over them made
  /// the work of a run vary by ~25% between seeds, its peak memory with
  /// how far the run got. Once every thread has been edited, each pass of
  /// the script meets the same quanta. The seed picks the milliseconds
  /// within them (so every edit is new text with a new fingerprint, a cold
  /// miss) and which recent variant each repeat asks for.
  const Variant& next() {
    if (requests_++ % kEditEvery == 0 || recent_.empty()) {
      if (edits_++ % kScriptEdits == 0) script_.seed(kScriptSeed);
      const std::size_t i = script_() % CruiseVariants::kThreads;
      const int q = quanta(
          static_cast<int>(script_() % (CruiseVariants::kEditRangeMs + 1)));
      CruiseVariants::Bounds hi = current_;
      hi[i] = CruiseVariants::lower(i) + offset(q);
      // Already requested: same quanta everywhere, other milliseconds.
      for (std::size_t tries = 0; seen_.count(hi); ++tries) {
        if (tries == 64)
          throw std::runtime_error("serve_edit: no new variant for an edit");
        const std::size_t j =
            tries < 8 ? i : values_() % CruiseVariants::kThreads;
        hi[j] = CruiseVariants::lower(j) +
                offset(quanta(hi[j] - CruiseVariants::lower(j)));
      }
      seen_.insert(hi);
      current_ = hi;
      recent_.push_back(make_variant(hi));
      if (recent_.size() > kEditEvery) recent_.pop_front();
      return *recent_.back();
    }
    return *recent_[values_() % recent_.size()];
  }

  std::shared_ptr<Variant> make_variant(const CruiseVariants::Bounds& hi) {
    auto v = std::make_shared<Variant>();
    v->name = "[";
    for (std::size_t i = 0; i < hi.size(); ++i)
      v->name += (i ? "," : "") + std::to_string(hi[i]);
    v->name += "] ms upper bounds @ " + std::to_string(kQuantumMs) + " ms";
    v->text = variants_.render(hi);
    v->expected = CruiseVariants::rta_schedulable(hi, kQuantumMs);
    if (wrong_oracle_ && seen_.size() == 2) v->expected = !v->expected;
    server::Request req;
    req.op = server::Op::Analyze;
    req.id = "e" + std::to_string(seen_.size() - 1);
    req.model = v->text;
    req.root = kCruiseRoot;
    req.options.quantum_ns = std::int64_t{kQuantumMs} * 1'000'000;
    v->line = server::render_request(req);
    return v;
  }

  std::optional<server::Response> check(const Variant& v,
                                        const std::string& line) {
    std::string error;
    auto resp = server::parse_response(line, error);
    const bool ok =
        resp && resp->ok &&
        resp->outcome == (v.expected ? core::Outcome::Schedulable
                                     : core::Outcome::NotSchedulable);
    checks.expect(ok, [&] {
      return "serve_edit variant " + v.name + ": got " +
             (resp ? std::string(core::to_string(resp->outcome)) +
                         (resp->ok ? "" : " (" + resp->error + ")")
                   : "unparsable response: " + error) +
             ", oracle says " + verdict_name(v.expected);
    });
    return resp;
  }

  double stat(const char* key, const char* sub = nullptr) const {
    const auto doc = util::parse_json(service_->stats_json());
    const util::JsonValue* v = doc ? doc->get(key) : nullptr;
    if (v && sub) v = v->get(sub);
    return v ? v->as_double() : 0;
  }

  CruiseVariants variants_;
  std::uint64_t seed_;
  bool wrong_oracle_;
  std::string work_dir_;
  std::string dir_;
  int setups_ = 0;
  static constexpr std::uint64_t kScriptSeed = 0x5c41b7;
  static constexpr std::size_t kScriptEdits = 64;
  std::size_t edits_ = 0;
  std::mt19937_64 script_;  // which thread and how many quanta
  std::mt19937_64 values_;  // milliseconds within them, repeats
  CruiseVariants::Bounds current_{};
  std::set<CruiseVariants::Bounds> seen_;
  std::deque<std::shared_ptr<Variant>> recent_;
  const Variant* pending_ = nullptr;  // owned by recent_
  std::size_t requests_ = 0;
  std::size_t handled_ = 0;
  // Destroyed in reverse: the client, then the listener, then the service
  // it serves.
  std::unique_ptr<server::Service> service_;
  std::unique_ptr<server::TcpServer> tcp_;
  std::unique_ptr<server::Client> client_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& o) {
  if (name == "verify_cruise") return std::make_unique<VerifyCruise>(o);
  if (name == "sweep_fleet") return std::make_unique<SweepFleet>(o);
  if (name == "serve_edit") return std::make_unique<ServeEdit>(o);
  throw std::runtime_error("unknown workload " + name);
}

const char* const kWorkloads[] = {"verify_cruise", "sweep_fleet",
                                  "serve_edit"};

/// Closed-loop operations in host-corrected windows for `seconds`.
struct Measurement {
  std::vector<double> raw_ms;  // per operation
  std::vector<double> ms;      // per operation, corrected
};

Measurement measure(Workload& w, Windows& win, double seconds,
                    Tracer* tracer) {
  Measurement m;
  const double end = now_ms() + seconds * 1000;
  do {
    win.open();
    const double w0 = now_ms();
    std::vector<double> raw;
    std::size_t verdicts = 0;
    do {
      if (tracer) tracer->set_request(tracer->spans().size());
      w.prepare();
      const double t0 = now_ms();
      verdicts += tracer ? w.traced_op(*tracer) : w.op();
      raw.push_back(now_ms() - t0);
    } while (!w.window_full(raw.size(), now_ms() - w0, tracer != nullptr));
    const double f = win.close(verdicts);
    if (tracer) tracer->end_window(f);
    for (double r : raw) {
      m.raw_ms.push_back(r);
      m.ms.push_back(r * f);
    }
  } while (now_ms() < end);
  return m;
}

std::string ref_line(const Windows& win) {
  const auto& r = win.ref_ms();
  return "host reference: nominal " + fmt(win.nominal()) + " ms on " +
         std::to_string(win.threads()) + " thread(s); this run median " +
         fmt(median(r)) + " ms, quartiles " + fmt(percentile(r, 0.25)) +
         "-" + fmt(percentile(r, 0.75)) + " ms over " +
         std::to_string(r.size()) + " kernel runs";
}

void collect(const Workload& w, Result& res) {
  res.attempted += w.checks.attempted;
  res.failed += w.checks.failed;
  res.failures.insert(res.failures.end(), w.checks.failures.begin(),
                      w.checks.failures.end());
}

}  // namespace

bool known_workload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

Result run_untraced(const Options& opts) {
  auto w = make_workload(opts.workload, opts);
  Result res;
  res.context.push_back("pinned to CPU " + pin_cpus(w->ref_threads()));
  HostRef ref(opts.ref_exe);

  // Set-up is repeated and its median reported: one set-up is a single
  // sample of a short interval and would carry the host's noise whole.
  std::vector<double> setup_raw, setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) w->teardown();
    Bracket b(ref, w->ref_threads());
    b.start();
    w->setup();
    double corrected = 0;
    setup_raw.push_back(b.stop(corrected));
    setup.push_back(corrected);
  }

  Windows win(ref, w->ref_threads());
  const Measurement m = measure(*w, win, opts.seconds, nullptr);
  w->teardown();
  collect(*w, res);

  const double q = w->tail_quantile();
  const double verdicts = static_cast<double>(win.verdicts);
  res.metrics = {
      {"setup_s", median(setup) / 1e3, "s", median(setup_raw) / 1e3},
      {"verdicts_per_s", verdicts / (win.wall_ms / 1e3), "1/s",
       verdicts / (win.raw_wall_ms / 1e3)},
      {"latency_p50_ms", median(m.ms), "ms", median(m.raw_ms)},
      {"latency_tail_ms", percentile(m.ms, q), "ms", percentile(m.raw_ms, q)},
      {"cpu_ms_per_verdict", win.cpu_ms / verdicts, "ms",
       win.raw_cpu_ms / verdicts},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const auto beyond = static_cast<std::size_t>(
      static_cast<double>(m.ms.size()) * (1 - q));
  res.context.push_back(ref_line(win));
  res.context.push_back(
      std::to_string(m.ms.size()) + " operations (" +
      std::to_string(win.verdicts) + " verdicts) in " +
      std::to_string(win.index()) + " windows; latency_tail_ms is p" +
      std::to_string(static_cast<int>(q * 100 + 0.5)) + " with " +
      std::to_string(beyond) + " samples beyond it" +
      (beyond < 10 ? " (FEWER THAN 10: run longer)" : ""));
  char share[64];
  std::snprintf(share, sizeof share, "failed_share %.6f (%zu of %zu)",
                res.attempted ? double(res.failed) / double(res.attempted) : 0.0,
                res.failed, res.attempted);
  res.context.push_back(share);
  return res;
}

Result run_traced(const Options& opts) {
  Result res;
  const double quarter = opts.seconds / 4;

  // The selected workload untraced, for the tracing overhead. Each segment
  // runs pinned as its workload runs untraced, with a kernel child of its
  // own pinned alike.
  double untraced_p50 = 0;
  {
    auto w = make_workload(opts.workload, opts);
    pin_cpus(w->ref_threads());
    HostRef ref(opts.ref_exe);
    w->setup();
    Windows win(ref, w->ref_threads());
    untraced_p50 = median(measure(*w, win, quarter, nullptr).ms);
    w->teardown();
    collect(*w, res);
  }

  std::vector<Metric> layers;
  double overhead = 0, accounted = 0;
  for (const char* name : kWorkloads) {
    auto w = make_workload(name, opts);
    res.context.push_back(std::string(name) + " pinned to CPU " +
                          pin_cpus(w->ref_threads()));
    HostRef ref(opts.ref_exe);
    w->setup();
    Tracer tracer;
    Windows win(ref, w->ref_threads());
    measure(*w, win, quarter, &tracer);
    w->layers(tracer, layers, res.context);
    if (opts.workload == name) {
      std::vector<double> op;
      const auto all = tracer.by_name(false);
      for (const std::string& s : w->op_spans())
        if (all.count(s)) op.insert(op.end(), all.at(s).begin(), all.at(s).end());
      overhead = median(op) / untraced_p50 - 1;
      accounted = w->accounted_ms(tracer) / untraced_p50;
    }
    const std::string path =
        opts.work_dir + "/trace-" + opts.workload + "-seed" +
        std::to_string(opts.seed) + "-" + name + ".json";
    if (!tracer.write_json(path))
      throw std::runtime_error("cannot write " + path);
    res.context.push_back(std::string(name) + ": " +
                          std::to_string(tracer.spans().size()) +
                          " spans written to " + path);
    w->teardown();
    collect(*w, res);
  }

  // Layer order: aadl, acsr, lint, translate, versa, core, server, exp.
  const std::vector<std::string> order = {
      "aadl.parse_us", "aadl.instantiate_us", "aadl.fingerprint_us",
      "acsr.context_us", "acsr.terms_per_state", "acsr.bytes_per_state",
      "acsr.teardown_ms",
      "lint.run_us", "lint.decided_share", "translate.us",
      "versa.explore_ms", "versa.states_per_s", "versa.states",
      "versa.transitions", "versa.memo_hit_rate", "versa.peak_frontier",
      "core.analyze_ms", "core.self_ms", "core.render_us",
      "server.roundtrip_hit_us", "server.roundtrip_cold_ms",
      "server.handle_hit_us", "server.socket_us", "server.parse_request_us",
      "server.render_response_us", "server.memory_hit_share",
      "server.disk_writes", "server.disk_store_failures",
      "exp.render_model_us"};
  for (const std::string& n : order)
    for (const Metric& m : layers)
      if (m.name == n) res.metrics.push_back(m);
  res.metrics.push_back({"trace.overhead_share", overhead, "fraction"});
  res.metrics.push_back({"trace.accounted_share", accounted, "fraction"});
  res.context.push_back("untraced " + opts.workload + " latency_p50_ms " +
                        fmt(untraced_p50));
  return res;
}

}  // namespace perfbench
