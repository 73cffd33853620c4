#include "server/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/result_json.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace aadlsched::server {

namespace fs = std::filesystem;

namespace {

using util::FaultInjector;

/// Write `body` to `tmp_path`, honoring the `site` fault hook: a tripped
/// write site emits only a prefix of the bytes and reports failure — the
/// torn file a kill -9 mid-write leaves behind, for the sweeper (and the
/// digest check, should the torn file somehow get renamed) to deal with.
bool write_tmp_file(const std::string& tmp_path, const std::string& body,
                    FaultInjector::Site site) {
  std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  if (FaultInjector::global().trip_io(site)) {
    out << std::string_view(body).substr(0, body.size() / 2);
    return false;  // tmp file deliberately left behind, torn
  }
  out << body;
  out.flush();
  return out.good();
}

std::optional<std::string> read_file(const std::string& path,
                                     FaultInjector::Site site) {
  if (FaultInjector::global().trip_io(site)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

ResultCache::ResultCache(CacheConfig cfg)
    : cfg_(std::move(cfg)), memory_(cfg_.memory_capacity) {
  if (!cfg_.disk_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cfg_.disk_dir, ec);
    // A failed create degrades to memory-only: lookups will miss, stores
    // will fail (and be counted). The daemon surfaces the misconfiguration
    // at startup instead (it stats the directory). Tmp leftovers are the
    // DiskJanitor's: its startup sweep is the one scan of the directory.
  }
}

std::string ResultCache::disk_path(const std::string& key) const {
  // Keys are hex digests — already safe as file names.
  return cfg_.disk_dir + "/" + key + ".json";
}

void ResultCache::note_store_failure(const std::string& path,
                                     const char* what) {
  disk_store_failures_.fetch_add(1, std::memory_order_relaxed);
  if (!store_diag_emitted_.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "aadlschedd: warning: result cache disk store failed (%s: "
                 "%s); entries stay memory-only until the disk recovers "
                 "(counted in stats as disk_store_failures)\n",
                 what, path.c_str());
}

std::optional<ResultCache::Entry> ResultCache::disk_load(
    const std::string& key) const {
  // A failed read (I/O error, injected cache.read fault) is a plain miss —
  // the file may be fine; only *verified-present-but-invalid* bytes are
  // quarantined.
  auto raw = read_file(disk_path(key), FaultInjector::Site::CacheRead);
  if (!raw || raw->empty()) return std::nullopt;
  // A rejected file is quarantined (deleted) so the damage costs exactly
  // one miss: the re-run stores a fresh copy instead of tripping over the
  // same bytes forever.
  const auto quarantine = [&]() -> std::optional<Entry> {
    std::error_code ec;
    fs::remove(disk_path(key), ec);
    corrupt_evictions_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  };
  // Gate 1: the trailing content digest (DESIGN.md §15) — catches torn,
  // truncated, bit-rotted, or pre-digest-era files byte-exactly.
  const auto body = util::strip_trailing_digest(*raw);
  if (!body) return quarantine();
  std::string json(*body);
  while (!json.empty() && (json.back() == '\n' || json.back() == '\r'))
    json.pop_back();
  // Gate 2: the payload *is* the canonical result object; recover the
  // outcome from its "outcome" field and reject anything foreign.
  const auto doc = util::parse_json(json);
  if (!doc || !doc->is_object()) return quarantine();
  const auto* outcome = doc->get("outcome");
  if (!outcome || !outcome->is_string()) return quarantine();
  const auto parsed = core::outcome_from_string(outcome->as_string());
  if (!parsed || !cacheable(*parsed)) return quarantine();
  return Entry{*parsed, std::move(json)};
}

std::optional<ResultCache::Hit> ResultCache::lookup(const std::string& key) {
  {
    std::lock_guard lock(mu_);
    if (auto entry = memory_.get(key))
      return Hit{entry->outcome, std::move(entry->result_json), false};
  }
  if (cfg_.disk_dir.empty()) return std::nullopt;
  // Disk I/O outside the lock; a racing store of the same key is benign
  // (same bytes by construction — keys are content hashes).
  auto entry = disk_load(key);
  if (!entry) return std::nullopt;
  {
    std::lock_guard lock(mu_);
    memory_.put(key, *entry);
  }
  return Hit{entry->outcome, std::move(entry->result_json), true};
}

void ResultCache::store(const std::string& key, core::Outcome outcome,
                        const std::string& result_json) {
  if (!cacheable(outcome)) return;
  {
    std::lock_guard lock(mu_);
    memory_.put(key, Entry{outcome, result_json});
  }
  if (cfg_.disk_dir.empty()) return;
  const std::string final_path = disk_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  std::string body = result_json;
  body += '\n';
  util::append_digest(body);
  if (!write_tmp_file(tmp_path, body, FaultInjector::Site::CacheWrite)) {
    note_store_failure(final_path, "write");
    return;  // torn tmp (if any) is left for the liveness-aware sweeper
  }
  if (FaultInjector::global().trip_io(FaultInjector::Site::CacheRename)) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename (injected)");
    return;
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename");
  }
}

std::uint64_t ResultCache::evictions() const {
  std::lock_guard lock(mu_);
  return memory_.evictions();
}

std::uint64_t ResultCache::entries() const {
  std::lock_guard lock(mu_);
  return memory_.size();
}

// --- CheckpointStore -------------------------------------------------------

CheckpointStore::CheckpointStore(std::size_t memory_capacity,
                                 std::size_t disk_cap, std::string disk_dir)
    : disk_cap_(disk_cap),
      disk_dir_(std::move(disk_dir)),
      memory_(memory_capacity) {
  if (has_disk_tier()) {
    std::error_code ec;
    fs::create_directories(disk_dir_, ec);
  }
}

std::string CheckpointStore::disk_path(const std::string& key) const {
  return disk_dir_ + "/" + key + ".ckpt";
}

void CheckpointStore::note_store_failure(const std::string& path,
                                         const char* what) {
  disk_store_failures_.fetch_add(1, std::memory_order_relaxed);
  if (!store_diag_emitted_.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "aadlschedd: warning: checkpoint disk store failed (%s: "
                 "%s); warm re-exploration will not survive a restart "
                 "(counted in stats as disk_store_failures)\n",
                 what, path.c_str());
}

std::optional<std::string> CheckpointStore::lookup(const std::string& key) {
  {
    std::lock_guard lock(mu_);
    if (auto blob = memory_.get(key)) return blob;
  }
  if (!has_disk_tier()) return std::nullopt;
  auto blob = read_file(disk_path(key), FaultInjector::Site::CkptRead);
  if (!blob || blob->empty()) return std::nullopt;
  // serialize_checkpoint seals every blob with the same trailing digest
  // line (util::append_digest); verify it here (without stripping — it is
  // part of the blob format parse_checkpoint expects) so a torn .ckpt is
  // quarantined instead of burning a restore attempt.
  if (!util::strip_trailing_digest(*blob)) {
    std::error_code ec;
    fs::remove(disk_path(key), ec);
    corrupt_evictions_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  {
    std::lock_guard lock(mu_);
    memory_.put(key, *blob);
  }
  return blob;
}

void CheckpointStore::store(const std::string& key,
                            const std::string& checkpoint) {
  if (checkpoint.empty()) return;
  {
    std::lock_guard lock(mu_);
    memory_.put(key, checkpoint);
  }
  if (!has_disk_tier()) return;
  const std::string final_path = disk_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  if (!write_tmp_file(tmp_path, checkpoint, FaultInjector::Site::CkptWrite)) {
    note_store_failure(final_path, "write");
    return;
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename");
    return;
  }
  enforce_disk_cap();
}

void CheckpointStore::erase(const std::string& key) {
  {
    std::lock_guard lock(mu_);
    memory_.erase(key);
  }
  if (!has_disk_tier()) return;
  std::error_code ec;
  fs::remove(disk_path(key), ec);
}

void CheckpointStore::enforce_disk_cap() {
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(disk_dir_, ec)) {
    if (!ent.is_regular_file(ec)) continue;
    if (ent.path().extension() != ".ckpt") continue;
    std::error_code mt;
    files.emplace_back(ent.last_write_time(mt), ent.path());
  }
  if (files.size() <= disk_cap_) return;
  std::sort(files.begin(), files.end());
  const std::size_t excess = files.size() - disk_cap_;
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < excess; ++i) {
    // Cap-based eviction is GC too: same gc.remove fault site as the
    // size-budgeted sweep, so the soak can starve it deterministically.
    if (FaultInjector::global().trip_io(FaultInjector::Site::GcRemove))
      continue;
    std::error_code rm;
    if (fs::remove(files[i].second, rm)) ++removed;
  }
  std::lock_guard lock(mu_);
  disk_evictions_ += removed;
}

std::uint64_t CheckpointStore::evictions() const {
  std::lock_guard lock(mu_);
  return memory_.evictions() + disk_evictions_;
}

std::uint64_t CheckpointStore::entries() const {
  if (has_disk_tier()) {
    // The disk tier is the authoritative set (memory is a subset of it);
    // the cap keeps this scan trivially small.
    std::uint64_t n = 0;
    std::error_code ec;
    for (const auto& ent : fs::directory_iterator(disk_dir_, ec)) {
      std::error_code rf;
      if (ent.is_regular_file(rf) && ent.path().extension() == ".ckpt") ++n;
    }
    return n;
  }
  std::lock_guard lock(mu_);
  return memory_.size();
}

}  // namespace aadlsched::server
