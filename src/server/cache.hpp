// The daemon's content-addressed result store.
//
// ResultCache is a bounded in-memory LRU over an optional disk tier of one
// file per key, `<dir>/<key>.json`, that every daemon pointed at the
// directory shares. It implements the crash-safety rules of DESIGN.md §15:
// writes go to `<file>.tmp.<pid>` and are renamed into place; the bytes
// are the canonical result object, a newline and the util::append_digest
// seal, verified on every load; a file that fails the seal or names no
// cacheable outcome is quarantined (deleted, counted in corrupt_evictions),
// so damage costs one miss; a disk hit is promoted into memory; a write
// that never lands is counted in disk_store_failures, with a one-shot
// diagnostic, while memory still serves the entry.
//
// Keys combine the model's canonical content fingerprint
// (aadl::instance_fingerprint) with a hash of the *semantic* analysis
// options (quantum, execution-time model, lint): two requests that could
// legitimately produce different verdicts never share a key. Keys are hex,
// safe as file names; names and bytes stay stable across daemon versions
// that share a directory.
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
// In front of both tiers sits the exact-repeat memo: a request digest
// (the root and the exact model bytes, front_end_digest) mapped to the
// fingerprint the full front end computed for those bytes. A repeat names
// its cache key without parse, instantiate or fingerprint. It is sound
// because:
//   * the front end is a pure function of the root and the model bytes,
//     and the digest covers exactly those, so the digest of one request
//     cannot stand for a different instance up to a collision of its two
//     64-bit lanes (DESIGN.md §11 gives the argument). Requests of one
//     length that differ in a single 8-byte word never collide;
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
#include <string_view>

#include "aadl/fingerprint.hpp"
#include "core/analyzer.hpp"
#include "server/metrics.hpp"
#include "util/hash.hpp"
#include "util/lru_cache.hpp"

namespace aadlsched::server {

struct CacheConfig {
  std::size_t memory_capacity = 1024;  // result objects are small (~300 B)
  std::string disk_dir;                // "" disables the disk tier
};

/// Budget-invariant outcomes only (see soundness policy above).
inline bool cacheable(core::Outcome o) {
  return o == core::Outcome::Schedulable || o == core::Outcome::NotSchedulable;
}

/// The exact-repeat memo's key: a two-lane 128-bit digest that reads
/// `root` and then `model` a word (8 bytes) at a time and folds each one's
/// length in after it, which keeps root "A" + model "Bx" apart from
/// "AB" + "x". It lives only in memory, so it is free to differ from
/// util::fnv1a_128, which names fingerprints and disk entries.
util::Hash128 front_end_digest(std::string_view root, std::string_view model);

/// The result store plus the exact-repeat memo (see file comment). Its
/// lookup and store speak outcomes and result objects.
class ResultCache {
 public:
  struct Hit {
    core::Outcome outcome = core::Outcome::Error;
    std::string result_json;
    bool from_disk = false;
  };

  explicit ResultCache(const CacheConfig& cfg);

  /// Memory tier first, then disk (promoting on a disk hit).
  std::optional<Hit> lookup(const std::string& key);
  /// Store on both tiers; a no-op unless cacheable(outcome).
  void store(const std::string& key, core::Outcome outcome,
             const std::string& result_json);

  /// The fingerprint remember() recorded for `digest`, if the memo still
  /// holds it.
  std::optional<aadl::Fingerprint> recall(const util::Hash128& digest);
  /// Record what a successful front end computed for a request digest.
  void remember(const util::Hash128& digest, const aadl::Fingerprint& fp);

  /// Disk files that failed the seal or decoding on load; each was
  /// quarantined and costs one miss, after which the re-run's store
  /// rewrites it.
  std::uint64_t corrupt_evictions() const {
    return corrupt_evictions_.load(std::memory_order_relaxed);
  }
  /// Disk stores that never landed (tmp write or rename failed, including
  /// injected faults). The memory tier still holds the entry.
  std::uint64_t disk_store_failures() const {
    return disk_store_failures_.load(std::memory_order_relaxed);
  }
  /// The `cache` stats gauges. `entries` is the memory tier's size: a
  /// daemon reports the verdicts it holds, not the directory it shares
  /// (test_service pins the count).
  StoreGauges gauges() const;

 private:
  /// The outcome is kept beside the bytes so a memory hit parses no JSON.
  struct Entry {
    core::Outcome outcome = core::Outcome::Error;
    std::string result_json;
  };
  struct DigestHash {
    std::size_t operator()(const util::Hash128& h) const {
      return static_cast<std::size_t>(h.hi);
    }
  };

  bool has_disk_tier() const { return !dir_.empty(); }
  std::string disk_path(const std::string& key) const;
  std::optional<Entry> disk_load(const std::string& key);
  void disk_write(const std::string& key, const Entry& entry);
  void note_store_failure(const std::string& path, const char* what);

  std::string dir_;
  mutable std::mutex mu_;
  util::LruCache<std::string, Entry> memory_;
  std::atomic<std::uint64_t> corrupt_evictions_{0};
  std::atomic<std::uint64_t> disk_store_failures_{0};
  std::atomic<bool> store_diag_emitted_{false};

  std::mutex memo_mu_;
  util::LruCache<util::Hash128, aadl::Fingerprint, DigestHash> memo_;
};

}  // namespace aadlsched::server
