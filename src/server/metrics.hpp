// Service observability: monotonic counters plus a bounded latency sample
// ring, snapshotted into the `stats` response. One mutex guards the whole
// structure — every update is a handful of integer stores, so contention is
// irrelevant next to an analysis run, and a single lock makes the snapshot
// internally consistent (hits + misses == analyze lookups, always).
//
// Counters are cumulative since service start and never decrease (the
// concurrent-use test asserts monotonicity across snapshots); gauges
// (in_flight, queue_depth) float freely.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "server/diskstore.hpp"
#include "server/protocol.hpp"

namespace aadlsched::server {

/// The gauges one two-tier store owns (cache.hpp). Rendered as the last four
/// keys of its stats object.
struct StoreGauges {
  std::uint64_t evictions = 0;
  /// Disk files quarantined on load (cache self-healing).
  std::uint64_t corrupt_evictions = 0;
  /// Disk writes that never landed (tmp write or rename failed).
  std::uint64_t disk_store_failures = 0;
  std::uint64_t entries = 0;
};

/// Numbers the stores and the shared-directory janitor own, sampled at
/// snapshot time.
struct CacheGauges {
  StoreGauges cache;        // the result store
  StoreGauges checkpoints;  // the checkpoint store
  /// Size-budgeted GC plus tmp hygiene (DESIGN.md §15), accumulated by the
  /// DiskJanitor across sweeps.
  GcStats gc;
  /// Live daemons registered on this cache directory (self included; 0
  /// when the disk tier is off).
  std::uint64_t shared_instances = 0;
};

struct StatsSnapshot {
  // Counters.
  std::uint64_t requests = 0;          // all ops
  std::uint64_t analyze_requests = 0;  // op == analyze
  std::uint64_t analyses_run = 0;      // actually explored (miss, post-coalesce)
  std::uint64_t cache_hits_memory = 0;
  std::uint64_t cache_hits_disk = 0;
  std::uint64_t cache_misses = 0;
  /// Hits answered through the exact-repeat memo, without the front end
  /// (a subset of hits_memory + hits_disk).
  std::uint64_t cache_front_end_skips = 0;
  std::uint64_t cache_stores = 0;
  // Warm re-exploration (checkpoint tier, DESIGN.md §12).
  std::uint64_t checkpoint_hits = 0;    // resume requests served a checkpoint
  std::uint64_t checkpoint_misses = 0;  // resume requested, none available
  std::uint64_t checkpoint_stores = 0;  // budget-bound runs checkpointed
  std::uint64_t checkpoint_resume_failures = 0;  // restore rejected; ran cold
  // Symbolic engine (DESIGN.md §16): runs that used the state-class engine,
  // cumulative zones/subsumptions across them, and the largest DBM seen.
  std::uint64_t symbolic_runs = 0;
  std::uint64_t symbolic_zones = 0;
  std::uint64_t symbolic_subsumptions = 0;
  std::uint64_t symbolic_max_dbm_dimension = 0;
  std::uint64_t coalesced = 0;  // requests that piggybacked an in-flight run
  std::uint64_t protocol_errors = 0;
  std::uint64_t outcomes[4] = {0, 0, 0, 0};  // indexed by core::Outcome
  // Gauges.
  std::uint64_t in_flight = 0;    // analyses executing right now
  std::uint64_t queue_depth = 0;  // admitted but not yet executing
  CacheGauges disk;
  // Latency of served analyze requests (submit -> response), milliseconds.
  // `latency_samples` counts every sample ever recorded; the percentiles
  // are computed over only the most recent `latency_window` samples (the
  // bounded ring, Metrics::kLatencyRing). A long soak that trusts p50/p95
  // as all-time aggregates would misread them — the stats JSON carries the
  // window explicitly so consumers can tell recent from cumulative.
  std::uint64_t latency_samples = 0;
  std::uint64_t latency_window = 0;  // samples behind p50/p95 (<= ring size)
  double p50_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
  double uptime_ms = 0;

  /// Render as the `stats` JSON object (the last member of the stats
  /// response line).
  std::string render_json() const;
};

class Metrics {
 public:
  Metrics() : start_(std::chrono::steady_clock::now()) {}

  /// Add one to a plain counter, e.g. count(&StatsSnapshot::cache_misses).
  void count(std::uint64_t StatsSnapshot::*counter);
  void record_request(Op op);
  void record_protocol_error();
  void record_outcome(core::Outcome o);
  void record_hit(bool disk_tier, bool front_end_skipped);
  void record_symbolic_run(std::uint64_t zones, std::uint64_t subsumptions,
                           std::uint64_t dbm_dimension);
  void record_latency_ms(double ms);
  void in_flight_delta(int d);
  void queue_depth_delta(int d);

  StatsSnapshot snapshot(const CacheGauges& gauges) const;

 private:
  static constexpr std::size_t kLatencyRing = 4096;

  mutable std::mutex mu_;
  StatsSnapshot s_;  // counters/gauges only; latency fields filled at snapshot
  std::vector<double> latency_ring_;
  std::size_t latency_next_ = 0;
  std::uint64_t latency_total_ = 0;
  double latency_max_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aadlsched::server
