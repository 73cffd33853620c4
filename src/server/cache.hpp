// The daemon's content-addressed stores: one two-tier store, two kinds.
//
// TwoTierStore<Kind> is a bounded in-memory LRU over an optional disk tier
// of one file per key, `<dir>/<key><ext>`, that every daemon pointed at the
// directory shares. It implements the crash-safety rules of DESIGN.md §15
// once: writes go to `<file>.tmp.<pid>` and are renamed into place; the
// bytes carry the util::append_digest seal, verified on every load; a file
// that fails the seal or decoding is quarantined (deleted, counted in
// corrupt_evictions), so damage costs one miss; a disk hit is promoted into
// memory; a write that never lands is counted in disk_store_failures, with
// a one-shot diagnostic, while memory still serves the entry; an optional
// file cap evicts the oldest files first.
//
// A Kind is a compile-time description: the extension, the fault sites, how
// a value becomes bytes and how bytes are validated and decoded. ResultKind
// (`.json`) holds conclusive verdicts; ResultCache is its store plus the
// exact-repeat memo. CheckpointKind (`.ckpt`) holds the wavefronts of
// budget-bound runs (DESIGN.md §12): resumable work rather than verdicts, so
// its store is small on both tiers and the service erases an entry once a
// conclusive result lands for its key.
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
// In front of both result tiers sits the exact-repeat memo: a request digest
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
#include "util/budget.hpp"
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

/// The exact-repeat memo's key: a two-lane 128-bit digest that reads
/// `root` and then `model` a word (8 bytes) at a time and folds each one's
/// length in after it, which keeps root "A" + model "Bx" apart from
/// "AB" + "x". It lives only in memory, so it is free to differ from
/// util::fnv1a_128, which names fingerprints and disk entries.
util::Hash128 front_end_digest(std::string_view root, std::string_view model);

using Site = util::FaultInjector::Site;

/// Verdicts. The disk bytes are the canonical result object, a newline and
/// the seal.
struct ResultKind {
  /// The outcome is kept beside the bytes so a memory hit parses no JSON.
  struct Value {
    core::Outcome outcome = core::Outcome::Error;
    std::string result_json;
  };
  static constexpr std::string_view kExt = ".json";
  static constexpr Site kWriteSite = Site::CacheWrite;
  static constexpr std::optional<Site> kRenameSite = Site::CacheRename;
  static constexpr Site kReadSite = Site::CacheRead;
  /// The store seals the payload itself.
  static constexpr bool kValueIsSealed = false;
  /// `entries` is the memory tier's size: a daemon reports the verdicts it
  /// holds, not the directory it shares (test_service pins the count).
  static constexpr bool kEntriesCountFiles = false;
  static constexpr std::string_view kNoun = "result cache";
  static constexpr std::string_view kLoss =
      "entries stay memory-only until the disk recovers";

  static std::string payload(const Value& v) { return v.result_json + '\n'; }
  /// The payload *is* the canonical result object: its "outcome" field must
  /// name a cacheable outcome, or the file is foreign.
  static std::optional<Value> decode(std::string_view body,
                                     std::string& sealed);
};

/// Exploration checkpoints, stored as the sealed blobs
/// versa::serialize_checkpoint returns.
struct CheckpointKind {
  using Value = std::string;
  static constexpr std::string_view kExt = ".ckpt";
  static constexpr Site kWriteSite = Site::CkptWrite;
  /// No rename site: the fault table has none for checkpoints, and probing
  /// cache.rename here would spend trips armed for the result store.
  static constexpr std::optional<Site> kRenameSite = std::nullopt;
  static constexpr Site kReadSite = Site::CkptRead;
  /// serialize_checkpoint seals the blob (a CLI --checkpoint-file carries
  /// the same seal), and parse_checkpoint expects the digest line, so the
  /// bytes go to disk and back into memory as they are.
  static constexpr bool kValueIsSealed = true;
  /// `entries` counts the `.ckpt` files when the disk tier is on: that is
  /// the set a resume can draw on, and the file cap bounds it (the cap
  /// test pins 2 files while memory still holds 3).
  static constexpr bool kEntriesCountFiles = true;
  static constexpr std::string_view kNoun = "checkpoint";
  static constexpr std::string_view kLoss =
      "warm re-exploration will not survive a restart";

  static const std::string& payload(const Value& v) { return v; }
  static std::optional<Value> decode(std::string_view /*body*/,
                                     std::string& sealed) {
    return std::move(sealed);
  }
};

template <class Kind>
class TwoTierStore {
 public:
  using Value = typename Kind::Value;
  struct Found {
    Value value;
    bool from_disk = false;
  };

  /// `dir` "" keeps the store memory-only; `file_cap` 0 leaves the number of
  /// `<ext>` files in `dir` uncapped.
  TwoTierStore(std::size_t memory_capacity, std::string dir,
               std::size_t file_cap = 0);

  /// Memory tier first, then disk (promoting on a disk hit).
  std::optional<Found> lookup(const std::string& key);
  /// Store on both tiers, then enforce the file cap.
  void store(const std::string& key, Value value);
  /// Drop an entry from both tiers.
  void erase(const std::string& key);

  bool has_disk_tier() const { return !dir_.empty(); }
  std::uint64_t evictions() const;
  std::uint64_t entries() const;
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
  StoreGauges gauges() const {
    return {evictions(), corrupt_evictions(), disk_store_failures(),
            entries()};
  }

 private:
  std::string disk_path(const std::string& key) const;
  std::optional<Value> disk_load(const std::string& key);
  void disk_write(const std::string& key, const Value& value);
  void enforce_file_cap();  // does file I/O: never under mu_
  void note_store_failure(const std::string& path, const char* what);

  std::string dir_;
  std::size_t file_cap_;
  mutable std::mutex mu_;
  util::LruCache<std::string, Value> memory_;
  std::uint64_t cap_evictions_ = 0;  // guarded by mu_
  std::atomic<std::uint64_t> corrupt_evictions_{0};
  std::atomic<std::uint64_t> disk_store_failures_{0};
  std::atomic<bool> store_diag_emitted_{false};
};

using CheckpointStore = TwoTierStore<CheckpointKind>;

/// The result store plus the exact-repeat memo (see file comment). Its
/// lookup and store speak outcomes and result objects.
class ResultCache : public TwoTierStore<ResultKind> {
 public:
  struct Hit {
    core::Outcome outcome = core::Outcome::Error;
    std::string result_json;
    bool from_disk = false;
  };

  explicit ResultCache(const CacheConfig& cfg);

  /// Memory tier first, then disk (promoting on a disk hit).
  std::optional<Hit> lookup(const std::string& key);
  /// No-op unless cacheable(outcome).
  void store(const std::string& key, core::Outcome outcome,
             const std::string& result_json);

  /// The fingerprint remember() recorded for `digest`, if the memo still
  /// holds it.
  std::optional<aadl::Fingerprint> recall(const util::Hash128& digest);
  /// Record what a successful front end computed for a request digest.
  void remember(const util::Hash128& digest, const aadl::Fingerprint& fp);

 private:
  struct DigestHash {
    std::size_t operator()(const util::Hash128& h) const {
      return static_cast<std::size_t>(h.hi);
    }
  };

  std::mutex memo_mu_;
  util::LruCache<util::Hash128, aadl::Fingerprint, DigestHash> memo_;
};

}  // namespace aadlsched::server
