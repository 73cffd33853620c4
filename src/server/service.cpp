#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "aadl/fingerprint.hpp"
#include "aadl/parser.hpp"
#include "core/result_json.hpp"
#include "lint/lint.hpp"
#include "util/hash.hpp"

namespace aadlsched::server {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Hash of the semantic analysis options — the part of the cache key that
/// is not the model. Budgets are deliberately absent: only budget-invariant
/// (conclusive) outcomes are cached (see cache.hpp).
std::string options_key(const RequestOptions& ro) {
  // The cache_key rows of kOptionTable (RequestOptions says why each is
  // there), then the lint pass catalogue version: a new or changed pass
  // can turn an explored model into a statically decided one, so results
  // from an older catalogue must not be served. v2 added no_reduction, v3
  // the catalogue version, v4 the engine.
  std::uint64_t h = util::fnv1a("options-v4");
  for (const OptionSpec& spec : kOptionTable) {
    if (!spec.cache_key) continue;
    // no_reduction's retired slot stays 0: daemon versions share cache dirs.
    if (spec.key == "engine") h = util::hash_combine(h, 0);
    h = util::hash_combine(h, static_cast<std::uint64_t>(spec.get(ro)));
  }
  h = util::hash_combine(h, static_cast<std::uint64_t>(lint::kLintPassVersion));
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The result-cache key: the model's fingerprint and the options hash. It
/// is also the disk entry's file name stem.
std::string cache_key(const aadl::Fingerprint& fp, const RequestOptions& ro) {
  return fp.hex() + "-" + options_key(ro);
}

/// Everything that must stay alive for the instance to be analyzable: the
/// declarative model (the instance tree points into its types/impls) plus
/// the instance itself.
struct Parsed {
  aadl::Model model;
  std::unique_ptr<aadl::InstanceModel> instance;
  std::string front_end_output;  // rendered diagnostics (warnings on success)
};

std::unique_ptr<Parsed> parse_request_model(const Request& req,
                                            std::string& error) {
  auto parsed = std::make_unique<Parsed>();
  util::DiagnosticEngine diags(req.id.empty() ? "<request>" : req.id);
  if (!aadl::parse_aadl(parsed->model, req.model, diags)) {
    error = diags.render_all();
    return nullptr;
  }
  parsed->instance = aadl::instantiate(parsed->model, req.root, diags);
  if (!parsed->instance || diags.has_errors()) {
    error = diags.render_all();
    return nullptr;
  }
  parsed->front_end_output = diags.render_all();
  return parsed;
}

}  // namespace

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

void AdmissionQueue::push(std::uint64_t ticket, bool small) {
  (small ? small_ : large_).push_back(ticket);
}

std::optional<std::uint64_t> AdmissionQueue::pop() {
  if (small_.empty() && large_.empty()) return std::nullopt;
  bool take_small;
  if (small_.empty())
    take_small = false;
  else if (large_.empty())
    take_small = true;
  else
    take_small = small_streak_ < burst_;
  if (take_small) {
    // The streak only counts small admissions that made a large request
    // wait; a purely small workload never "uses up" its burst.
    if (!large_.empty()) ++small_streak_;
    const std::uint64_t t = small_.front();
    small_.pop_front();
    return t;
  }
  small_streak_ = 0;
  const std::uint64_t t = large_.front();
  large_.pop_front();
  return t;
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

struct Service::Job {
  struct Waiter {
    std::promise<Response> promise;
    std::string id;
    Clock::time_point t0;
  };

  Request req;  // the first submitter's request (runs with its options)
  std::string key;
  std::string fingerprint;
  std::unique_ptr<Parsed> parsed;
  std::vector<Waiter> waiters;  // guarded by Service::mu_
};

Service::Service(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(cfg.cache),
      // checkpoints=false zeroes both tiers: stores drop, lookups miss.
      checkpoints_(cfg.cache.checkpoints ? cfg.cache.checkpoint_memory_capacity
                                         : 0,
                   cfg.cache.checkpoints ? cfg.cache.checkpoint_disk_cap : 0,
                   cfg.cache.disk_dir),
      admission_(std::max<std::size_t>(1, cfg.small_burst)) {
  if (!cfg_.cache.disk_dir.empty()) {
    DiskJanitor::Config jc;
    jc.dir = cfg_.cache.disk_dir;
    jc.cap_bytes = cfg_.cache_disk_cap_bytes;
    janitor_ = std::make_unique<DiskJanitor>(jc);
    // Startup sweep: reap what previous (possibly killed) daemons left
    // behind before serving the first request.
    janitor_->sweep();
  }
  std::size_t n = cfg_.workers;
  if (n == 0)
    n = std::max<unsigned>(1, std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (janitor_ && cfg_.maintenance_interval_ms > 0)
    maintenance_ = std::thread([this] { maintenance_loop(); });
}

Service::~Service() {
  shutdown();
  for (std::thread& t : workers_) t.join();
  if (maintenance_.joinable()) maintenance_.join();
}

void Service::shutdown() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  {
    std::lock_guard lock(maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
}

bool Service::shutting_down() const {
  std::lock_guard lock(mu_);
  return stop_;
}

core::AnalyzerOptions Service::analyzer_options(
    const RequestOptions& ro) const {
  // A cap of 0 is no cap; a request for no limit (0) gets the cap.
  const auto clamp = [](auto request, auto cap) {
    return cap == 0 ? request : request == 0 ? cap : std::min(request, cap);
  };
  core::AnalyzerOptions opts = to_analyzer_options(ro);
  util::RunBudget& b = opts.exploration.budget;
  opts.exploration.max_states =
      clamp(opts.exploration.max_states, cfg_.max_states_cap);
  b.deadline_ms = clamp(b.deadline_ms, cfg_.max_deadline_ms);
  b.memory_bytes =
      clamp(b.memory_bytes, cfg_.memory_budget_mb_cap * 1024 * 1024);
  return opts;
}

std::future<Response> Service::submit(Request req) {
  const Clock::time_point t0 = Clock::now();
  metrics_.record_request(req.op);

  const auto immediate = [&](Response resp) {
    std::promise<Response> p;
    auto fut = p.get_future();
    p.set_value(std::move(resp));
    return fut;
  };

  Response resp;
  resp.op = req.op;
  resp.id = req.id;

  switch (req.op) {
    case Op::Ping:
      resp.ok = true;
      return immediate(std::move(resp));
    case Op::Stats:
      resp.ok = true;
      resp.stats_json = stats_json();
      return immediate(std::move(resp));
    case Op::Shutdown:
      resp.ok = true;
      shutdown();
      return immediate(std::move(resp));
    case Op::Analyze:
      break;
  }

  if (shutting_down()) {
    resp.ok = false;
    resp.error = "service is shutting down";
    return immediate(std::move(resp));
  }

  // A daemon-level engine override rewrites the request *before* the cache
  // key is computed — same discipline as the options themselves, so forced
  // and requested runs of the same engine share cache entries.
  if (cfg_.force_engine) req.options.engine = *cfg_.force_engine;

  // A cache hit is answered inline: it never queues behind a running
  // exploration.
  const auto answer_hit = [&](const aadl::Fingerprint& fp,
                              ResultCache::Hit hit, bool front_end_skipped) {
    resp.ok = true;
    resp.outcome = hit.outcome;
    resp.fingerprint = fp.hex();
    resp.cached = true;
    resp.cache_tier = hit.from_disk ? "disk" : "memory";
    resp.result_json = std::move(hit.result_json);
    resp.served_ms = ms_since(t0);
    metrics_.record_hit(hit.from_disk, front_end_skipped);
    metrics_.record_outcome(hit.outcome);
    metrics_.record_latency_ms(resp.served_ms);
    return immediate(std::move(resp));
  };

  // Exact repeat (cache.hpp): these root and model bytes were fingerprinted
  // before, so the cache key is known without the front end. When its
  // result entry is gone, the full path below runs as if the memo missed.
  std::optional<util::Hash128> digest;
  if (!req.no_cache) {
    digest = front_end_digest(req.root, req.model);
    if (const auto fp = cache_.recall(*digest))
      if (auto hit = cache_.lookup(cache_key(*fp, req.options)))
        return answer_hit(*fp, std::move(*hit), true);
  }

  // Front end on the submitting thread: parse + instantiate + fingerprint
  // are microseconds against an exploration, and the fingerprint is needed
  // before any scheduling decision (it IS the cache key).
  std::string front_end_error;
  auto parsed = parse_request_model(req, front_end_error);
  if (!parsed) {
    core::AnalysisResult err;
    err.diagnostics = front_end_error;
    resp.ok = true;  // protocol-level success; the analysis outcome is Error
    resp.outcome = core::Outcome::Error;
    resp.cached = false;
    resp.cache_tier = "none";
    resp.result_json = core::render_result_json(err);
    resp.served_ms = ms_since(t0);
    metrics_.record_outcome(core::Outcome::Error);
    metrics_.record_latency_ms(resp.served_ms);
    return immediate(std::move(resp));
  }

  const aadl::Fingerprint fp = aadl::instance_fingerprint(*parsed->instance);
  const std::string key = cache_key(fp, req.options);

  if (digest) {
    cache_.remember(*digest, fp);
    if (auto hit = cache_.lookup(key))
      return answer_hit(fp, std::move(*hit), false);
    metrics_.record_miss();
  }

  const bool small = req.model.size() < cfg_.small_model_bytes;
  std::future<Response> fut;
  {
    std::lock_guard lock(mu_);
    if (stop_) {
      resp.ok = false;
      resp.error = "service is shutting down";
      return immediate(std::move(resp));
    }
    if (!req.no_cache) {
      // Coalesce onto an identical in-flight run: one exploration, many
      // responses.
      const auto it = pending_.find(key);
      if (it != pending_.end()) {
        Job::Waiter w;
        w.id = req.id;
        w.t0 = t0;
        fut = w.promise.get_future();
        it->second->waiters.push_back(std::move(w));
        metrics_.record_coalesced();
        return fut;
      }
    }
    auto job = std::make_shared<Job>();
    job->req = std::move(req);
    job->key = key;
    job->fingerprint = fp.hex();
    job->parsed = std::move(parsed);
    Job::Waiter w;
    w.id = job->req.id;
    w.t0 = t0;
    fut = w.promise.get_future();
    job->waiters.push_back(std::move(w));
    const std::uint64_t ticket = next_ticket_++;
    admission_.push(ticket, small);
    queued_.emplace(ticket, job);
    if (!job->req.no_cache) pending_.emplace(key, job);
    metrics_.queue_depth_delta(+1);
  }
  cv_.notify_one();
  return fut;
}

void Service::maintenance_loop() {
  const auto interval = std::chrono::duration<double, std::milli>(
      cfg_.maintenance_interval_ms);
  std::unique_lock lock(maint_mu_);
  while (!maint_stop_) {
    if (maint_cv_.wait_for(lock, interval, [&] { return maint_stop_; }))
      return;
    lock.unlock();
    janitor_->sweep();  // never under maint_mu_: sweeps do file I/O
    lock.lock();
  }
}

void Service::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stop_ || admission_.size() > 0; });
      const auto ticket = admission_.pop();
      if (!ticket) {
        if (stop_) return;  // drained
        continue;
      }
      const auto it = queued_.find(*ticket);
      job = it->second;
      queued_.erase(it);
      metrics_.queue_depth_delta(-1);
    }
    run_job(job);
  }
}

void Service::run_job(const std::shared_ptr<Job>& job) {
  metrics_.in_flight_delta(+1);
  metrics_.record_analysis_run();

  core::AnalyzerOptions opts = analyzer_options(job->req.options);

  // Warm re-exploration (DESIGN.md §12). no_cache means "forced cold
  // re-run", so it opts out of the checkpoint tier entirely — the --no-cache
  // control run in a cold-vs-resumed comparison must neither resume nor
  // clobber the stored wavefront.
  const bool use_checkpoints = cfg_.cache.checkpoints &&
                               !job->req.no_checkpoint && !job->req.no_cache;
  std::string checkpoint_out;
  std::string resume_blob;
  bool resume_attempted = false;
  if (use_checkpoints) {
    opts.checkpoint_out = &checkpoint_out;
    if (job->req.resume) {
      if (auto blob = checkpoints_.lookup(job->key)) {
        resume_blob = std::move(*blob);
        opts.resume_checkpoint = &resume_blob;
        resume_attempted = true;
        metrics_.record_checkpoint_hit();
      } else {
        metrics_.record_checkpoint_miss();
      }
    }
  }

  core::AnalysisResult result =
      core::analyze_instance(*job->parsed->instance, opts);
  result.diagnostics = job->parsed->front_end_output + result.diagnostics;
  const std::string result_json = core::render_result_json(result);

  if (result.engine == core::Engine::Symbolic)
    metrics_.record_symbolic_run(result.states, result.zone_subsumptions,
                                 result.dbm_dimension);

  if (resume_attempted && !result.resumed) {
    // The blob failed restore validation (analyze_instance fell back to a
    // cold run). Drop it — retrying the same bytes cannot succeed.
    metrics_.record_checkpoint_resume_failure();
    checkpoints_.erase(job->key);
  }
  if (use_checkpoints && result.checkpoint_captured &&
      !checkpoint_out.empty()) {
    checkpoints_.store(job->key, checkpoint_out);
    metrics_.record_checkpoint_store();
  }

  if (!job->req.no_cache && cacheable(result.outcome)) {
    cache_.store(job->key, result.outcome, result_json);
    metrics_.record_store();
    // A conclusive verdict supersedes any partial wavefront for this key.
    checkpoints_.erase(job->key);
  }

  std::vector<Job::Waiter> waiters;
  {
    std::lock_guard lock(mu_);
    waiters = std::move(job->waiters);
    job->waiters.clear();
    if (!job->req.no_cache) pending_.erase(job->key);
  }
  for (Job::Waiter& w : waiters) {
    Response resp;
    resp.op = Op::Analyze;
    resp.ok = true;
    resp.id = w.id;
    resp.outcome = result.outcome;
    resp.fingerprint = job->fingerprint;
    resp.cached = false;
    resp.cache_tier = "none";
    resp.resumed = result.resumed;
    resp.resumed_depth = result.resumed_from_depth;
    resp.checkpoint_captured = result.checkpoint_captured;
    resp.result_json = result_json;
    resp.served_ms = ms_since(w.t0);
    metrics_.record_outcome(result.outcome);
    metrics_.record_latency_ms(resp.served_ms);
    w.promise.set_value(std::move(resp));
  }
  metrics_.in_flight_delta(-1);
}

Response Service::handle(Request req) { return submit(std::move(req)).get(); }

std::string Service::handle_line(std::string_view line) {
  std::string error;
  auto req = parse_request(line, error);
  if (!req) {
    metrics_.record_protocol_error();
    Response resp;
    resp.ok = false;
    resp.error = error;
    return render_response(resp);
  }
  return render_response(handle(std::move(*req)));
}

std::string Service::stats_json() {
  Metrics::CacheGauges g;
  g.cache_evictions = cache_.evictions();
  g.cache_entries = cache_.entries();
  g.cache_corrupt_evictions = cache_.corrupt_evictions();
  g.cache_disk_store_failures = cache_.disk_store_failures();
  g.checkpoint_evictions = checkpoints_.evictions();
  g.checkpoint_entries = checkpoints_.entries();
  g.checkpoint_corrupt_evictions = checkpoints_.corrupt_evictions();
  g.checkpoint_disk_store_failures = checkpoints_.disk_store_failures();
  if (janitor_) {
    const GcStats gc = janitor_->gc_stats();
    g.gc_runs = gc.runs;
    g.gc_removed_files = gc.removed_files;
    g.gc_removed_bytes = gc.removed_bytes;
    g.gc_remove_failures = gc.remove_failures;
    g.gc_tmp_swept = gc.tmp_swept;
    g.shared_instances = janitor_->instances_gauge();
  }
  return metrics_.snapshot(g).render_json();
}

}  // namespace aadlsched::server
