// The in-process analysis service: the daemon minus the socket.
//
// A Service owns a set of analysis slots, an admission queue, a two-tier
// result cache, a checkpoint store for warm re-exploration (DESIGN.md §12)
// and a metrics block. It has no threads of its own for analyses: every
// request runs on the thread that calls handle() (a daemon connection, a
// sweep thread, a test). handle() classifies the request:
//
//   * stats / ping / shutdown are answered inline (they must stay
//     responsive while every slot grinds on a storm model);
//   * analyze whose exact root and model bytes were fingerprinted before
//     (the exact-repeat memo, cache.hpp) is served from the cache with no
//     parse, instantiate or fingerprint when its result entry is there;
//   * any other analyze runs the front end (parse, instantiate,
//     fingerprint) — cheap next to exploration — then is
//       - served from cache immediately on a hit (hits never queue behind
//         a running exploration — the whole point of the cache),
//       - coalesced onto an identical in-flight run on a pending-key match
//         (a thundering herd of identical edits runs the exploration once;
//         the coalesced callers wait for that run's result),
//       - otherwise queued for a slot, and run by the caller itself once
//         admitted.
//
// A slot is the right to run one analysis; ServiceConfig::workers is the
// number of slots, so at most that many analyses run at once however many
// threads call handle(). Admission is fair FIFO with a small-model fast
// lane: requests whose model text is under 16 KiB go to the small lane,
// and the scheduler admits up to 4 small requests per large one when both
// lanes are non-empty (weighted round-robin — an interactive editor
// ping-ponging a 3-thread model is not stuck behind a batch of avionics
// suites, and the batch still makes progress; within a lane, strict FIFO).
// Per-request budgets are clamped to the service caps before running, so
// one client cannot buy an unbounded exploration.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/cache.hpp"
#include "server/diskstore.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"

namespace aadlsched::server {

struct ServiceConfig {
  /// Analysis slots: how many analyses run at once, each on the thread
  /// that asked for it. 0 = hardware concurrency (min 1).
  std::size_t workers = 1;
  CacheConfig cache;
  /// Server-side caps clamped onto every request's budget; 0 = uncapped.
  double max_deadline_ms = 0;
  std::uint64_t max_states_cap = 0;
  std::uint64_t memory_budget_mb_cap = 0;
  /// Daemon-level engine override (aadlschedd --engine): rewrites every
  /// request's engine before cache-key computation, so forced and requested
  /// runs of the same engine share cache entries.
  std::optional<core::Engine> force_engine;
  // --- shared-directory maintenance (DESIGN.md §15) ---------------------
  /// Byte budget for disk artifacts (`.json` + `.ckpt`) in the cache dir;
  /// the maintenance sweep evicts oldest-atime-first when over it.
  /// 0 = no size budget.
  std::uint64_t cache_disk_cap_bytes = 0;
  /// Period of the background maintenance sweep (tmp hygiene, instance
  /// registry reaping, size-budgeted GC). 0 disables the thread; a startup
  /// sweep still runs either way when the disk tier is on.
  double maintenance_interval_ms = 30'000;
};

/// Admission order, factored out of Service so the policy is unit-testable
/// without threads: two FIFO lanes plus a burst counter.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(std::size_t small_burst) : burst_(small_burst) {}

  void push(std::uint64_t ticket, bool small);
  /// Next ticket to admit; nullopt when empty.
  std::optional<std::uint64_t> pop();
  std::size_t size() const { return small_.size() + large_.size(); }

 private:
  std::deque<std::uint64_t> small_;
  std::deque<std::uint64_t> large_;
  std::size_t burst_;
  std::size_t small_streak_ = 0;
};

class Service {
 public:
  explicit Service(ServiceConfig cfg = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Answer one request. Stats/ping/shutdown and analyze cache hits return
  /// at once; an analyze miss waits for a slot and runs the analysis on the
  /// calling thread (a coalesced one waits for the run it joined). An
  /// exception from the analysis propagates to this caller; the slot is
  /// freed and any coalesced callers are answered with an error.
  Response handle(Request req);

  /// Parse a request line, execute it, render the response line. The whole
  /// server loop body, shared by the daemon and in-process tests.
  std::string handle_line(std::string_view line);

  /// Rendered stats object (also reachable via an Op::Stats request).
  std::string stats_json();

  /// Stop accepting new work; analyses already queued for a slot or running
  /// complete and their callers get their results. Idempotent. The
  /// destructor also waits until no caller is left inside handle().
  void shutdown();
  bool shutting_down() const;

  /// The shared-directory maintenance agent; null when the disk tier is
  /// off. Exposed so the daemon can log cohabitants at startup and tests
  /// can force a sweep.
  DiskJanitor* janitor() { return janitor_.get(); }

 private:
  struct Job;
  class SlotGuard;

  core::AnalyzerOptions analyzer_options(const RequestOptions& ro) const;
  void maintenance_loop();
  /// Hand free slots to queued tickets in admission order. The caller
  /// holds mu_.
  void admit_locked();
  void run_job(Job& job);

  ServiceConfig cfg_;
  ResultCache cache_;
  CheckpointStore checkpoints_;
  std::unique_ptr<DiskJanitor> janitor_;  // disk tier only
  Metrics metrics_;

  const std::size_t slots_;

  mutable std::mutex mu_;
  /// Signalled when queued tickets are admitted, and when the last caller
  /// leaves a stopped service (the destructor waits for that).
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t callers_ = 0;  // threads inside handle()
  std::uint64_t next_ticket_ = 0;
  AdmissionQueue admission_;
  std::size_t running_ = 0;  // slots taken
  /// Tickets given a slot whose caller has not yet seen it.
  std::vector<std::uint64_t> admitted_;
  /// cache-key -> queued or running job accepting coalesced waiters. The
  /// job lives in its runner's handle() frame and leaves this map first.
  std::unordered_map<std::string, Job*> pending_;
  // The maintenance thread has its own mutex/cv: it must never consume a
  // notify meant to admit a queued caller.
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::thread maintenance_;
};

}  // namespace aadlsched::server
