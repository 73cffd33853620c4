#include "server/metrics.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace aadlsched::server {

std::string StatsSnapshot::render_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("requests").value(requests);
  w.key("analyze_requests").value(analyze_requests);
  w.key("analyses_run").value(analyses_run);
  w.key("cache").begin_object();
  w.key("hits_memory").value(cache_hits_memory);
  w.key("hits_disk").value(cache_hits_disk);
  w.key("misses").value(cache_misses);
  w.key("front_end_skips").value(cache_front_end_skips);
  w.key("stores").value(cache_stores);
  w.key("evictions").value(disk.cache.evictions);
  w.key("corrupt_evictions").value(disk.cache.corrupt_evictions);
  w.key("disk_store_failures").value(disk.cache.disk_store_failures);
  w.key("entries").value(disk.cache.entries);
  w.end_object();
  w.key("gc").begin_object();
  w.key("runs").value(disk.gc.runs);
  w.key("removed_files").value(disk.gc.removed_files);
  w.key("removed_bytes").value(disk.gc.removed_bytes);
  w.key("remove_failures").value(disk.gc.remove_failures);
  w.key("tmp_swept").value(disk.gc.tmp_swept);
  w.end_object();
  w.key("shared").begin_object();
  w.key("instances").value(disk.shared_instances);
  w.end_object();
  w.key("symbolic").begin_object();
  w.key("runs").value(symbolic_runs);
  w.key("zones").value(symbolic_zones);
  w.key("subsumptions").value(symbolic_subsumptions);
  w.key("max_dbm_dimension").value(symbolic_max_dbm_dimension);
  w.end_object();
  w.key("coalesced").value(coalesced);
  w.key("protocol_errors").value(protocol_errors);
  w.key("outcomes").begin_object();
  w.key("error").value(outcomes[static_cast<int>(core::Outcome::Error)]);
  w.key("schedulable")
      .value(outcomes[static_cast<int>(core::Outcome::Schedulable)]);
  w.key("not_schedulable")
      .value(outcomes[static_cast<int>(core::Outcome::NotSchedulable)]);
  w.key("inconclusive")
      .value(outcomes[static_cast<int>(core::Outcome::Inconclusive)]);
  w.end_object();
  w.key("in_flight").value(in_flight);
  w.key("queue_depth").value(queue_depth);
  w.key("latency").begin_object();
  w.key("samples").value(latency_samples);
  // Percentiles cover only the last `window` samples; `samples` is
  // all-time (see StatsSnapshot::latency_window).
  w.key("window").value(latency_window);
  w.key("p50_ms").value(p50_ms);
  w.key("p95_ms").value(p95_ms);
  w.key("max_ms").value(max_ms);
  w.end_object();
  w.key("uptime_ms").value(uptime_ms);
  w.end_object();
  return std::move(w).str();
}

void Metrics::count(std::uint64_t StatsSnapshot::*counter) {
  std::lock_guard lock(mu_);
  ++(s_.*counter);
}

void Metrics::record_request(Op op) {
  std::lock_guard lock(mu_);
  ++s_.requests;
  if (op == Op::Analyze) ++s_.analyze_requests;
}

void Metrics::record_protocol_error() {
  std::lock_guard lock(mu_);
  ++s_.requests;  // a malformed line is still a served request
  ++s_.protocol_errors;
}

void Metrics::record_outcome(core::Outcome o) {
  std::lock_guard lock(mu_);
  ++s_.outcomes[static_cast<int>(o)];
}

void Metrics::record_hit(bool disk_tier, bool front_end_skipped) {
  std::lock_guard lock(mu_);
  if (disk_tier)
    ++s_.cache_hits_disk;
  else
    ++s_.cache_hits_memory;
  if (front_end_skipped) ++s_.cache_front_end_skips;
}

void Metrics::record_symbolic_run(std::uint64_t zones,
                                  std::uint64_t subsumptions,
                                  std::uint64_t dbm_dimension) {
  std::lock_guard lock(mu_);
  ++s_.symbolic_runs;
  s_.symbolic_zones += zones;
  s_.symbolic_subsumptions += subsumptions;
  s_.symbolic_max_dbm_dimension =
      std::max(s_.symbolic_max_dbm_dimension, dbm_dimension);
}

void Metrics::record_latency_ms(double ms) {
  std::lock_guard lock(mu_);
  if (latency_ring_.size() < kLatencyRing) {
    latency_ring_.push_back(ms);
  } else {
    latency_ring_[latency_next_] = ms;
    latency_next_ = (latency_next_ + 1) % kLatencyRing;
  }
  ++latency_total_;
  latency_max_ = std::max(latency_max_, ms);
}

void Metrics::in_flight_delta(int d) {
  std::lock_guard lock(mu_);
  s_.in_flight += static_cast<std::uint64_t>(d);
}

void Metrics::queue_depth_delta(int d) {
  std::lock_guard lock(mu_);
  s_.queue_depth += static_cast<std::uint64_t>(d);
}

StatsSnapshot Metrics::snapshot(const CacheGauges& gauges) const {
  std::lock_guard lock(mu_);
  StatsSnapshot out = s_;
  out.disk = gauges;
  out.latency_samples = latency_total_;
  out.latency_window = latency_ring_.size();
  out.max_ms = latency_max_;
  if (!latency_ring_.empty()) {
    std::vector<double> sorted = latency_ring_;
    std::sort(sorted.begin(), sorted.end());
    const auto pct = [&](double p) {
      const std::size_t idx = static_cast<std::size_t>(
          p * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(idx, sorted.size() - 1)];
    };
    out.p50_ms = pct(0.50);
    out.p95_ms = pct(0.95);
  }
  out.uptime_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  return out;
}

}  // namespace aadlsched::server
