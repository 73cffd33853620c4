// Two-tier content-addressed result cache.
//
// Tier 1 is a bounded in-memory LRU; tier 2 is an optional on-disk store
// (one file per key, written atomically via rename) that survives daemon
// restarts — a second daemon pointed at the same directory serves warm
// verdicts without re-exploring. A disk hit is promoted into the memory
// tier.
//
// Keys combine the model's canonical content fingerprint
// (aadl::instance_fingerprint) with a hash of the *semantic* analysis
// options (quantum, execution-time model, lint) — two requests that could
// legitimately produce different verdicts never share a key.
//
// Soundness policy: only *conclusive* outcomes (Schedulable /
// NotSchedulable) are cached. A conclusive verdict is invariant to resource
// budgets — a deadlock is a deadlock no matter the deadline that was set,
// and "full space explored, no deadlock" does not depend on how much
// headroom was left — so serving it for any later budget is correct. An
// Inconclusive or Error outcome, by contrast, depends on the budget (or on
// transient front-end state) and must be recomputed, possibly with a
// bigger envelope. cacheable() encodes this.
//
// In front of both tiers sits the exact-repeat memo: a request digest (the
// root, a NUL byte and the exact model bytes, front_end_digest) mapped to
// the fingerprint the full front end computed for those bytes. A repeat
// names its cache key without parse, instantiate or fingerprint. It is
// sound because:
//   * the front end is a pure function of the root and the model bytes,
//     and the digest covers exactly those, so the digest of one request
//     cannot stand for a different instance (up to a collision of the
//     same two-lane 128-bit FNV-1a the fingerprint itself trusts as the
//     cache key — the memo adds no new collision class);
//   * only successful front ends are remembered: an error response
//     carries diagnostics rendered with the request id, so it is rebuilt
//     every time;
//   * the memo stores 16-byte digests and fingerprints, never model text,
//     and shares CacheConfig::memory_capacity with the memory tier, so
//     memory_capacity = 0 turns both off;
//   * a memo hit only changes how the key is found: when its result entry
//     is gone, the request takes the full path as if the memo were absent.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "aadl/fingerprint.hpp"
#include "core/analyzer.hpp"
#include "util/hash.hpp"
#include "util/lru_cache.hpp"

namespace aadlsched::server {

struct CacheConfig {
  std::size_t memory_capacity = 1024;  // result objects are small (~300 B)
  std::string disk_dir;                // "" disables the disk tier

  // --- checkpoint tier (warm re-exploration, DESIGN.md §12) -------------
  /// Keep exploration checkpoints of budget-bound runs so a later request
  /// with a larger envelope resumes instead of re-exploring from scratch.
  bool checkpoints = true;
  /// Checkpoints are big (the whole wavefront, often MBs) — the in-memory
  /// tier is deliberately tiny compared to the result cache.
  std::size_t checkpoint_memory_capacity = 4;
  /// Cap on `.ckpt` files kept in disk_dir; oldest (by mtime) are deleted
  /// first when over the cap. 0 disables the checkpoint disk tier.
  std::size_t checkpoint_disk_cap = 16;
};

/// Budget-invariant outcomes only (see soundness policy above).
inline bool cacheable(core::Outcome o) {
  return o == core::Outcome::Schedulable || o == core::Outcome::NotSchedulable;
}

/// The exact-repeat memo's key: FNV-1a 128 over `root`, a NUL byte and
/// `model`. The NUL keeps root "A" + model "Bx" apart from "AB" + "x".
util::Hash128 front_end_digest(std::string_view root, std::string_view model);

class ResultCache {
 public:
  struct Hit {
    core::Outcome outcome = core::Outcome::Error;
    std::string result_json;
    bool from_disk = false;
  };

  explicit ResultCache(CacheConfig cfg);

  /// Memory tier first, then disk (promoting on a disk hit).
  std::optional<Hit> lookup(const std::string& key);

  /// No-op unless cacheable(outcome). Disk writes are atomic
  /// (tmp + rename) and sealed with a trailing content digest that
  /// lookup() verifies, so a concurrent reader never sees a torn file and
  /// a corrupted one is never served.
  void store(const std::string& key, core::Outcome outcome,
             const std::string& result_json);

  /// The fingerprint remember() recorded for `digest`, if the memo still
  /// holds it (exact-repeat memo, see file comment).
  std::optional<aadl::Fingerprint> recall(const util::Hash128& digest);

  /// Record what a successful front end computed for a request digest.
  void remember(const util::Hash128& digest, const aadl::Fingerprint& fp);

  std::uint64_t evictions() const;
  std::uint64_t entries() const;
  /// Corrupt disk entries quarantined (deleted) on load. Each costs one
  /// cache miss and then self-heals: the re-run's store rewrites the file.
  std::uint64_t corrupt_evictions() const {
    return corrupt_evictions_.load(std::memory_order_relaxed);
  }
  /// Disk stores that never landed (tmp write or rename failed, including
  /// injected faults). The memory tier still holds the entry; only
  /// persistence was lost. First failure emits a one-shot diagnostic.
  std::uint64_t disk_store_failures() const {
    return disk_store_failures_.load(std::memory_order_relaxed);
  }
  bool has_disk_tier() const { return !cfg_.disk_dir.empty(); }

 private:
  struct Entry {
    core::Outcome outcome;
    std::string result_json;
  };

  std::string disk_path(const std::string& key) const;
  std::optional<Entry> disk_load(const std::string& key) const;
  void note_store_failure(const std::string& path, const char* what);

  struct DigestHash {
    std::size_t operator()(const util::Hash128& h) const {
      return static_cast<std::size_t>(h.hi);
    }
  };

  CacheConfig cfg_;
  mutable std::mutex mu_;
  util::LruCache<std::string, Entry> memory_;
  util::LruCache<util::Hash128, aadl::Fingerprint, DigestHash> front_end_memo_;
  mutable std::atomic<std::uint64_t> corrupt_evictions_{0};
  std::atomic<std::uint64_t> disk_store_failures_{0};
  std::atomic<bool> store_diag_emitted_{false};
};

/// Third cache tier: serialized exploration checkpoints of budget-bound
/// runs (versa::serialize_checkpoint blobs), keyed exactly like results.
/// Unlike results, checkpoints are *not* verdicts — they are resumable
/// work-in-progress — so the store is small, bounded on both tiers, and an
/// entry is dropped the moment a conclusive result lands for its key
/// (the result cache supersedes it).
///
/// Blobs are near-opaque bytes, but every disk load re-verifies the
/// trailing digest versa::serialize_checkpoint seals into the blob (the
/// same seal diskstore.hpp applies to result files) and quarantines
/// mismatches — a torn `.ckpt` from a killed writer is never handed to
/// versa::parse_checkpoint. A checkpoint that fails to restore for deeper
/// reasons still costs one cold run and is erased by the service.
class CheckpointStore {
 public:
  CheckpointStore(std::size_t memory_capacity, std::size_t disk_cap,
                  std::string disk_dir);

  /// Memory tier first, then disk (promoting on a disk hit).
  std::optional<std::string> lookup(const std::string& key);

  /// Store on both tiers (disk via tmp + rename), then enforce the disk
  /// cap by deleting the oldest `.ckpt` files.
  void store(const std::string& key, const std::string& checkpoint);

  /// Drop a checkpoint everywhere (conclusive verdict reached, or the
  /// blob failed to restore).
  void erase(const std::string& key);

  std::uint64_t evictions() const;
  std::uint64_t entries() const;
  /// Blobs whose embedded trailing digest did not verify on disk load;
  /// quarantined (deleted) exactly like corrupt result entries.
  std::uint64_t corrupt_evictions() const {
    return corrupt_evictions_.load(std::memory_order_relaxed);
  }
  /// Disk stores that never landed (tmp write or rename failed, including
  /// injected faults); mirrors ResultCache::disk_store_failures.
  std::uint64_t disk_store_failures() const {
    return disk_store_failures_.load(std::memory_order_relaxed);
  }
  bool has_disk_tier() const { return disk_cap_ > 0 && !disk_dir_.empty(); }

 private:
  std::string disk_path(const std::string& key) const;
  void enforce_disk_cap();  // caller must NOT hold mu_ (does file I/O)
  void note_store_failure(const std::string& path, const char* what);

  std::size_t disk_cap_;
  std::string disk_dir_;
  mutable std::mutex mu_;
  util::LruCache<std::string, std::string> memory_;
  std::uint64_t disk_evictions_ = 0;
  mutable std::atomic<std::uint64_t> corrupt_evictions_{0};
  std::atomic<std::uint64_t> disk_store_failures_{0};
  std::atomic<bool> store_diag_emitted_{false};
};

}  // namespace aadlsched::server
