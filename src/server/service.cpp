#include "server/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>

#include "aadl/fingerprint.hpp"
#include "core/result_json.hpp"
#include "lint/lint.hpp"
#include "util/hash.hpp"

namespace aadlsched::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Admission policy (service.hpp): models under kSmallModelBytes ride the
/// small lane, served up to kSmallBurst per large request.
constexpr std::size_t kSmallModelBytes = 16 * 1024;
constexpr std::size_t kSmallBurst = 4;

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
  std::string hex;
  util::append_hex(hex, h);
  return hex;
}

/// The result-cache key: the model's fingerprint and the options hash. It
/// is also the disk entry's file name stem.
std::string cache_key(const aadl::Fingerprint& fp, const RequestOptions& ro) {
  return fp.hex() + "-" + options_key(ro);
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

  Request req;  // the runner's request (the run uses its options)
  std::string key;
  std::string fingerprint;
  std::unique_ptr<core::LoadedModel> loaded;
  std::string front_end_output;  // rendered diagnostics (warnings)
  std::vector<Waiter> waiters;   // coalesced requests; guarded by mu_
  /// What every caller of this run is told, id and served_ms aside; set
  /// when the analysis completes.
  std::optional<Response> answer;
};

/// Holds the slot its caller was admitted to and gives it back when the
/// analysis ends, by return or by throw: the job leaves pending_, its
/// coalesced waiters are answered (with an error when the run threw) and
/// the next queued callers are admitted. Without it a throwing analysis
/// would keep its slot and every later caller would wait forever.
class Service::SlotGuard {
 public:
  SlotGuard(Service& svc, Job& job) : svc_(svc), job_(job) {
    svc_.metrics_.in_flight_delta(+1);
  }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

  ~SlotGuard() {
    // Leave in_flight before the slot is free, so it never reads above the
    // slot count.
    svc_.metrics_.in_flight_delta(-1);
    std::vector<Job::Waiter> waiters;
    {
      std::lock_guard lock(svc_.mu_);
      waiters = std::move(job_.waiters);
      if (!job_.req.no_cache) svc_.pending_.erase(job_.key);
      --svc_.running_;
      svc_.admit_locked();
    }
    svc_.cv_.notify_all();
    for (Job::Waiter& w : waiters) {
      Response resp;
      if (job_.answer) {
        resp = *job_.answer;
        svc_.metrics_.record_outcome(resp.outcome);
      } else {
        resp.op = Op::Analyze;
        resp.ok = false;
        resp.error = "the analysis this request was coalesced with failed";
      }
      resp.id = w.id;
      resp.served_ms = ms_since(w.t0);
      svc_.metrics_.record_latency_ms(resp.served_ms);
      w.promise.set_value(std::move(resp));
    }
  }

 private:
  Service& svc_;
  Job& job_;
};

Service::Service(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(cfg.cache),
      slots_(cfg.workers > 0 ? cfg.workers
                             : std::max<std::size_t>(
                                   1, std::thread::hardware_concurrency())),
      admission_(kSmallBurst) {
  if (!cfg_.cache.disk_dir.empty()) {
    DiskJanitor::Config jc;
    jc.dir = cfg_.cache.disk_dir;
    jc.cap_bytes = cfg_.cache_disk_cap_bytes;
    janitor_ = std::make_unique<DiskJanitor>(jc);
    // Startup sweep: reap what previous (possibly killed) daemons left
    // behind before serving the first request.
    janitor_->sweep();
  }
  if (janitor_ && cfg_.maintenance_interval_ms > 0)
    maintenance_ = std::thread([this] { maintenance_loop(); });
}

Service::~Service() {
  shutdown();
  {
    // Callers still inside handle() use this object. Queued ones are
    // admitted as the running ones finish, so the wait ends.
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return callers_ == 0; });
  }
  if (maintenance_.joinable()) maintenance_.join();
}

void Service::shutdown() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
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

void Service::admit_locked() {
  while (running_ < slots_) {
    const auto ticket = admission_.pop();
    if (!ticket) return;
    admitted_.push_back(*ticket);
    ++running_;
  }
}

Response Service::handle(Request req) {
  const Clock::time_point t0 = Clock::now();
  bool stopped;
  {
    std::lock_guard lock(mu_);
    ++callers_;
    stopped = stop_;
  }
  struct Leave {
    Service& svc;
    ~Leave() {
      std::lock_guard lock(svc.mu_);
      if (--svc.callers_ == 0 && svc.stop_) svc.cv_.notify_all();
    }
  } leave{*this};
  metrics_.record_request(req.op);

  Response resp;
  resp.op = req.op;
  resp.id = req.id;

  switch (req.op) {
    case Op::Ping:
      resp.ok = true;
      return resp;
    case Op::Stats:
      resp.ok = true;
      resp.stats_json = stats_json();
      return resp;
    case Op::Shutdown:
      resp.ok = true;
      shutdown();
      return resp;
    case Op::Analyze:
      break;
  }

  const auto refuse = [&] {
    resp.ok = false;
    resp.error = "service is shutting down";
    return resp;
  };
  if (stopped) return refuse();

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
    return resp;
  };

  // Exact repeat (cache.hpp): these root and model bytes were fingerprinted
  // before, so the cache key is known without the front end. When its
  // result entry is gone, the full path below runs as if the memo missed.
  std::optional<util::Hash128> digest;
  std::optional<aadl::Fingerprint> recalled;
  if (!req.no_cache) {
    digest = front_end_digest(req.root, req.model);
    recalled = cache_.recall(*digest);
    if (recalled)
      if (auto hit = cache_.lookup(cache_key(*recalled, req.options)))
        return answer_hit(*recalled, std::move(*hit), true);
  }

  // Front end: parse + instantiate + fingerprint are microseconds against
  // an exploration, and the fingerprint is needed before any scheduling
  // decision (it IS the cache key).
  util::DiagnosticEngine diags(req.id.empty() ? "<request>" : req.id);
  const std::string_view source = req.model;
  auto loaded = core::load_model({&source, 1}, req.root, diags);
  if (!loaded) {
    core::AnalysisResult err;
    err.diagnostics = diags.render_all();
    resp.ok = true;  // protocol-level success; the analysis outcome is Error
    resp.outcome = core::Outcome::Error;
    resp.cached = false;
    resp.cache_tier = "none";
    resp.result_json = core::render_result_json(err);
    resp.served_ms = ms_since(t0);
    metrics_.record_outcome(core::Outcome::Error);
    metrics_.record_latency_ms(resp.served_ms);
    return resp;
  }

  const aadl::Fingerprint fp = aadl::instance_fingerprint(*loaded->instance);
  std::string key = cache_key(fp, req.options);

  if (digest) {
    cache_.remember(*digest, fp);
    // A recalled fingerprint that the front end confirms names the key
    // the memo path just missed on: do not read the disk for it again.
    if (recalled != fp)
      if (auto hit = cache_.lookup(key))
        return answer_hit(fp, std::move(*hit), false);
    metrics_.count(&StatsSnapshot::cache_misses);
  }

  const bool small = req.model.size() < kSmallModelBytes;
  std::string front_end_output = diags.render_all();
  Job job;
  std::future<Response> coalesced;
  {
    std::unique_lock lock(mu_);
    if (stop_) return refuse();
    const auto it = req.no_cache ? pending_.end() : pending_.find(key);
    if (it != pending_.end()) {
      // Coalesce onto an identical running or queued job: one
      // exploration, many responses.
      Job::Waiter w;
      w.id = req.id;
      w.t0 = t0;
      coalesced = w.promise.get_future();
      it->second->waiters.push_back(std::move(w));
      metrics_.count(&StatsSnapshot::coalesced);
    } else {
      job.req = std::move(req);
      job.key = std::move(key);
      job.fingerprint = fp.hex();
      job.loaded = std::move(loaded);
      job.front_end_output = std::move(front_end_output);
      if (!job.req.no_cache) pending_.emplace(job.key, &job);
      const std::uint64_t ticket = next_ticket_++;
      admission_.push(ticket, small);
      metrics_.queue_depth_delta(+1);
      admit_locked();
      cv_.wait(lock, [&] { return std::erase(admitted_, ticket) > 0; });
      metrics_.queue_depth_delta(-1);
    }
  }
  if (coalesced.valid()) return coalesced.get();

  {
    const SlotGuard slot(*this, job);
    run_job(job);
  }
  resp = std::move(*job.answer);
  resp.id = job.req.id;
  resp.served_ms = ms_since(t0);
  metrics_.record_outcome(resp.outcome);
  metrics_.record_latency_ms(resp.served_ms);
  return resp;
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

void Service::run_job(Job& job) {
  metrics_.count(&StatsSnapshot::analyses_run);

  core::AnalysisResult result = core::analyze_instance(
      *job.loaded->instance, analyzer_options(job.req.options));
  result.diagnostics = job.front_end_output + result.diagnostics;

  if (result.engine == core::Engine::Symbolic)
    metrics_.record_symbolic_run(result.states,
                                 result.stats.zone_subsumptions,
                                 result.stats.dbm_dimension);

  std::string result_json = core::render_result_json(result);
  if (!job.req.no_cache && cacheable(result.outcome)) {
    cache_.store(job.key, result.outcome, result_json);
    metrics_.count(&StatsSnapshot::cache_stores);
  }

  Response& resp = job.answer.emplace();
  resp.op = Op::Analyze;
  resp.ok = true;
  resp.outcome = result.outcome;
  resp.fingerprint = job.fingerprint;
  resp.cached = false;
  resp.cache_tier = "none";
  resp.result_json = std::move(result_json);
}

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
  CacheGauges g;
  g.cache = cache_.gauges();
  if (janitor_) {
    g.gc = janitor_->gc_stats();
    g.shared_instances = janitor_->instances_gauge();
  }
  return metrics_.snapshot(g).render_json();
}

}  // namespace aadlsched::server
