// Crash-safety primitives for the shared on-disk cache (DESIGN.md §15).
//
// The result store (cache.hpp) writes one file per key via
// tmp + rename. That alone survives a single daemon's crash, but ROADMAP
// item 4 wants N `aadlschedd` processes pointed at ONE cache directory; this
// file adds the pieces that make that safe:
//
//   * a trailing content digest sealed into every disk artifact, verified on
//     every read (util::append_digest / util::strip_trailing_digest) — a
//     torn, truncated or bit-rotted file is detected and quarantined, never
//     served;
//   * an advisory flock(2)-based directory lock (DirLock) scoping every
//     multi-file maintenance operation (GC, sweeps, registry updates) so two
//     daemons never garbage-collect the same directory concurrently;
//   * pid-liveness-aware tmp cleanup: `.tmp.<pid>` leftovers are reaped only
//     when the owning process is dead (kill(pid,0) == ESRCH) or the file has
//     outlived a grace window — a sibling daemon mid-write is left alone;
//   * a psingleton-style instance registry (`.instances/<pid>`) so daemons
//     sharing a directory discover each other and report cohabitants in
//     `stats`;
//   * size-budgeted GC with quotas: when the directory's artifact bytes
//     exceed the cap, the oldest entries (by atime, falling back to mtime)
//     are evicted first, under the directory lock, with counters.
//
// DiskJanitor bundles the registry + sweeps + GC behind one object the
// Service drives from its maintenance thread. Everything here degrades
// gracefully: a failed lock/registry/GC operation is counted, never fatal —
// the cache itself keeps working (reads stay digest-verified regardless).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace aadlsched::server {

// --- pid liveness and tmp hygiene ------------------------------------------

/// kill(pid, 0) probe: false only for ESRCH (definitely gone). A pid we
/// cannot signal (EPERM) is conservatively treated as alive.
bool pid_alive(pid_t pid);

/// Remove `<name>.tmp.<pid>` leftovers in `dir` whose owner is dead, or
/// which are older than `grace_seconds` whatever the pid says (pid reuse,
/// foreign-host writers on shared storage). A live sibling's in-flight tmp
/// file inside the grace window is left untouched. Returns files removed.
std::uint64_t sweep_stale_tmp_files(const std::string& dir,
                                    double grace_seconds);

// --- advisory directory lock ------------------------------------------------

/// flock(2) on `<dir>/.dirlock`. Advisory by design: readers and tmp+rename
/// writers never take it (their atomicity does not need it); maintenance
/// operations that scan-and-delete do, so concurrent daemons serialize their
/// sweeps instead of double-deleting or racing the registry.
class DirLock {
 public:
  explicit DirLock(std::string dir);
  ~DirLock();

  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  /// Blocking exclusive acquire; false when the lock file cannot be opened
  /// (degraded mode: caller proceeds unlocked rather than wedging).
  bool lock();
  /// Non-blocking acquire; false when held elsewhere or unavailable.
  bool try_lock();
  void unlock();
  bool held() const { return held_; }

  /// RAII scope: acquires in the constructor (blocking), releases in the
  /// destructor. `ok()` is false when the acquire failed and the scope is
  /// running unlocked.
  class Scope {
   public:
    explicit Scope(DirLock& l) : lock_(l), ok_(l.lock()) {}
    ~Scope() {
      if (ok_) lock_.unlock();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    bool ok() const { return ok_; }

   private:
    DirLock& lock_;
    bool ok_;
  };

 private:
  std::string path_;
  int fd_ = -1;
  bool held_ = false;
};

// --- instance registry ------------------------------------------------------

struct InstanceInfo {
  pid_t pid = 0;
  std::string started;  // ISO-ish wall-clock string, informational only
};

// --- size-budgeted GC -------------------------------------------------------

struct GcStats {
  std::uint64_t runs = 0;           // sweeps that evaluated the budget
  std::uint64_t removed_files = 0;  // artifacts evicted under the cap
  std::uint64_t removed_bytes = 0;
  std::uint64_t remove_failures = 0;  // fs::remove failed (incl. injected)
  std::uint64_t tmp_swept = 0;        // stale tmp leftovers reaped
};

/// One GC pass over `dir`: when the summed size of its artifacts (`.json`,
/// and the `.ckpt` files older daemons left) exceeds `cap_bytes`, delete
/// oldest-first (atime, mtime fallback) until under the cap. Caller holds
/// the directory lock. Every removal goes through the `gc.remove`
/// fault-injection site.
GcStats run_disk_gc(const std::string& dir, std::uint64_t cap_bytes);

// --- the janitor ------------------------------------------------------------

/// The per-directory maintenance agent a Service owns when its disk tier is
/// enabled: registers this process in the shared directory, and on every
/// sweep() (startup + the maintenance thread's ticks) takes the directory
/// lock to reap dead instances, clean stale tmp files, and enforce the size
/// budget. All counters are cumulative and thread-safe to sample.
class DiskJanitor {
 public:
  struct Config {
    std::string dir;
    std::uint64_t cap_bytes = 0;      // 0 = no size budget (GC disabled)
    double tmp_grace_seconds = 300;   // live-pid tmp files younger than this
                                      // survive the sweep
  };

  explicit DiskJanitor(Config cfg);
  ~DiskJanitor();

  DiskJanitor(const DiskJanitor&) = delete;
  DiskJanitor& operator=(const DiskJanitor&) = delete;

  /// One maintenance pass (lock -> reap dead registry entries -> sweep
  /// stale tmp -> GC). Safe to call from any thread, at any time.
  void sweep();

  /// Registered instances whose pid is alive, this process included.
  /// Dead entries found along the way are reaped (under the lock).
  std::vector<InstanceInfo> live_instances();

  GcStats gc_stats() const;
  /// Live cohabitants at the last sweep/query (gauge, includes self).
  std::uint64_t instances_gauge() const {
    return instances_.load(std::memory_order_relaxed);
  }

  const std::string& dir() const { return cfg_.dir; }

 private:
  void register_self();
  void deregister_self();
  /// Scan + reap the registry; caller holds op_mu_ and the dir lock.
  std::vector<InstanceInfo> scan_registry();

  Config cfg_;
  /// flock(2) excludes other *processes*; within this process the janitor's
  /// own threads (maintenance sweep vs. a stats query) serialize on op_mu_,
  /// because a second flock on the same fd would succeed trivially.
  std::mutex op_mu_;
  DirLock lock_;  // guarded by op_mu_
  std::string self_entry_;  // registry file path for this pid
  mutable std::mutex mu_;   // guards gc_ accumulation
  GcStats gc_;
  std::atomic<std::uint64_t> instances_{1};
};

}  // namespace aadlsched::server
