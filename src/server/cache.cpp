#include "server/cache.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/result_json.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"

namespace aadlsched::server {

namespace fs = std::filesystem;

namespace {

using util::FaultInjector;
using Site = FaultInjector::Site;

/// Write `body` to `tmp_path`, honoring the cache.write fault hook: a tripped
/// write emits only a prefix of the bytes and reports failure — the
/// torn file a kill -9 mid-write leaves behind, for the sweeper (and the
/// digest check, should the torn file somehow get renamed) to deal with.
bool write_tmp_file(const std::string& tmp_path, std::string_view body) {
  std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  if (FaultInjector::global().trip_io(Site::CacheWrite)) {
    out << body.substr(0, body.size() / 2);
    return false;  // tmp file deliberately left behind, torn
  }
  out << body;
  out.flush();
  return out.good();
}

std::optional<std::string> read_file(const std::string& path) {
  if (FaultInjector::global().trip_io(Site::CacheRead)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Absorbs `bytes` into both lanes of `h`, eight bytes at a time; the tail
/// is zero-padded into one last word. Each lane xors a word in, multiplies
/// by its own odd constant and xor-shifts: every step is a bijection of the
/// lane, so two inputs of one length that differ in a single word always
/// leave different lanes. The length goes into a final mix64, which keeps
/// "x" apart from "x\0" (same padded words) and a root from the model that
/// follows it.
util::Hash128 absorb_words(std::string_view bytes, util::Hash128 h) {
  constexpr std::uint64_t kMulHi = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kMulLo = 0xc2b2ae3d27d4eb4fULL;
  const auto step = [&h](std::uint64_t w) {
    h.hi = (h.hi ^ w) * kMulHi;
    h.hi ^= h.hi >> 32;
    h.lo = (h.lo ^ w) * kMulLo;
    h.lo ^= h.lo >> 29;
  };
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    step(w);
  }
  if (i < bytes.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, bytes.size() - i);
    step(w);
  }
  h.hi = util::mix64(h.hi ^ bytes.size());
  h.lo = util::mix64(h.lo + bytes.size() * kMulLo);
  return h;
}

}  // namespace

util::Hash128 front_end_digest(std::string_view root, std::string_view model) {
  constexpr util::Hash128 kSeed{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
  return absorb_words(model, absorb_words(root, kSeed));
}

ResultCache::ResultCache(const CacheConfig& cfg)
    : dir_(cfg.disk_dir),
      memory_(cfg.memory_capacity),
      memo_(cfg.memory_capacity) {
  if (has_disk_tier()) {
    // A failed create degrades to memory-only: lookups miss, stores fail
    // and are counted (the daemon stats the directory at startup). Tmp
    // leftovers are the DiskJanitor's to sweep.
    std::error_code ec;
    fs::create_directories(dir_, ec);
  }
}

std::string ResultCache::disk_path(const std::string& key) const {
  return dir_ + "/" + key + ".json";
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
    const std::string& key) {
  // A failed read (I/O error, injected read fault) is a plain miss — the
  // file may be fine; only present-but-invalid bytes are quarantined.
  const auto raw = read_file(disk_path(key));
  if (!raw || raw->empty()) return std::nullopt;
  // The seal catches torn, truncated, bit-rotted or pre-digest-era files
  // byte-exactly. The body *is* the canonical result object: its "outcome"
  // field must name a cacheable outcome, or the file is foreign.
  std::optional<Entry> entry;
  if (auto body = util::strip_trailing_digest(*raw)) {
    while (!body->empty() && (body->back() == '\n' || body->back() == '\r'))
      body->remove_suffix(1);
    const auto doc = util::parse_json(*body);
    const auto* outcome =
        doc && doc->is_object() ? doc->get("outcome") : nullptr;
    if (outcome && outcome->is_string()) {
      const auto parsed = core::outcome_from_string(outcome->as_string());
      if (parsed && cacheable(*parsed))
        entry = Entry{*parsed, std::string(*body)};
    }
  }
  if (!entry) {
    std::error_code ec;
    fs::remove(disk_path(key), ec);
    corrupt_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return entry;
}

void ResultCache::disk_write(const std::string& key, const Entry& entry) {
  const std::string final_path = disk_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  std::string bytes = entry.result_json + '\n';
  util::append_digest(bytes);
  if (!write_tmp_file(tmp_path, bytes)) {
    note_store_failure(final_path, "write");
    return;  // torn tmp (if any) is left for the liveness-aware sweeper
  }
  std::error_code ec;
  if (FaultInjector::global().trip_io(Site::CacheRename)) {
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename (injected)");
    return;
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename");
  }
}

std::optional<ResultCache::Hit> ResultCache::lookup(const std::string& key) {
  {
    std::lock_guard lock(mu_);
    if (auto entry = memory_.get(key))
      return Hit{entry->outcome, std::move(entry->result_json), false};
  }
  if (!has_disk_tier()) return std::nullopt;
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
  Entry entry{outcome, result_json};
  // Disk first, so the entry can then move into memory.
  if (has_disk_tier()) disk_write(key, entry);
  std::lock_guard lock(mu_);
  memory_.put(key, std::move(entry));
}

StoreGauges ResultCache::gauges() const {
  std::lock_guard lock(mu_);
  return {memory_.evictions(), corrupt_evictions(), disk_store_failures(),
          memory_.size()};
}

std::optional<aadl::Fingerprint> ResultCache::recall(
    const util::Hash128& digest) {
  std::lock_guard lock(memo_mu_);
  return memo_.get(digest);
}

void ResultCache::remember(const util::Hash128& digest,
                           const aadl::Fingerprint& fp) {
  std::lock_guard lock(memo_mu_);
  memo_.put(digest, fp);
}

}  // namespace aadlsched::server
