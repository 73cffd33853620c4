#include "server/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/result_json.hpp"
#include "util/json.hpp"

namespace aadlsched::server {

namespace fs = std::filesystem;

namespace {

using util::FaultInjector;

/// Write `body` to `tmp_path`, honoring the `site` fault hook: a tripped
/// write site emits only a prefix of the bytes and reports failure — the
/// torn file a kill -9 mid-write leaves behind, for the sweeper (and the
/// digest check, should the torn file somehow get renamed) to deal with.
bool write_tmp_file(const std::string& tmp_path, std::string_view body,
                    Site site) {
  std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  if (FaultInjector::global().trip_io(site)) {
    out << body.substr(0, body.size() / 2);
    return false;  // tmp file deliberately left behind, torn
  }
  out << body;
  out.flush();
  return out.good();
}

std::optional<std::string> read_file(const std::string& path, Site site) {
  if (FaultInjector::global().trip_io(site)) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The `ext` files in `dir`, each with its mtime.
std::vector<std::pair<fs::file_time_type, fs::path>> list_files(
    const std::string& dir, std::string_view ext) {
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    std::error_code fe;
    if (ent.is_regular_file(fe) && ent.path().extension() == ext)
      files.emplace_back(ent.last_write_time(fe), ent.path());
  }
  return files;
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

std::optional<ResultKind::Value> ResultKind::decode(std::string_view body,
                                                    std::string& /*sealed*/) {
  while (!body.empty() && (body.back() == '\n' || body.back() == '\r'))
    body.remove_suffix(1);
  const auto doc = util::parse_json(body);
  if (!doc || !doc->is_object()) return std::nullopt;
  const auto* outcome = doc->get("outcome");
  if (!outcome || !outcome->is_string()) return std::nullopt;
  const auto parsed = core::outcome_from_string(outcome->as_string());
  if (!parsed || !cacheable(*parsed)) return std::nullopt;
  return Value{*parsed, std::string(body)};
}

// --- TwoTierStore ----------------------------------------------------------

template <class Kind>
TwoTierStore<Kind>::TwoTierStore(std::size_t memory_capacity, std::string dir,
                                 std::size_t file_cap)
    : dir_(std::move(dir)), file_cap_(file_cap), memory_(memory_capacity) {
  if (has_disk_tier()) {
    // A failed create degrades to memory-only: lookups miss, stores fail
    // and are counted (the daemon stats the directory at startup). Tmp
    // leftovers are the DiskJanitor's to sweep.
    std::error_code ec;
    fs::create_directories(dir_, ec);
  }
}

template <class Kind>
std::string TwoTierStore<Kind>::disk_path(const std::string& key) const {
  return dir_ + "/" + key + std::string(Kind::kExt);
}

template <class Kind>
void TwoTierStore<Kind>::note_store_failure(const std::string& path,
                                            const char* what) {
  disk_store_failures_.fetch_add(1, std::memory_order_relaxed);
  if (!store_diag_emitted_.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr,
                 "aadlschedd: warning: %s disk store failed (%s: %s); %s "
                 "(counted in stats as disk_store_failures)\n",
                 Kind::kNoun.data(), what, path.c_str(), Kind::kLoss.data());
}

template <class Kind>
std::optional<typename Kind::Value> TwoTierStore<Kind>::disk_load(
    const std::string& key) {
  // A failed read (I/O error, injected read fault) is a plain miss — the
  // file may be fine; only present-but-invalid bytes are quarantined.
  auto raw = read_file(disk_path(key), Kind::kReadSite);
  if (!raw || raw->empty()) return std::nullopt;
  // The seal catches torn, truncated, bit-rotted or pre-digest-era files
  // byte-exactly; the kind then rejects sealed bytes that are foreign.
  std::optional<Value> value;
  if (const auto body = util::strip_trailing_digest(*raw))
    value = Kind::decode(*body, *raw);
  if (!value) {
    std::error_code ec;
    fs::remove(disk_path(key), ec);
    corrupt_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return value;
}

template <class Kind>
void TwoTierStore<Kind>::disk_write(const std::string& key,
                                    const Value& value) {
  const std::string final_path = disk_path(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  decltype(auto) bytes = Kind::payload(value);
  if constexpr (!Kind::kValueIsSealed) util::append_digest(bytes);
  if (!write_tmp_file(tmp_path, bytes, Kind::kWriteSite)) {
    note_store_failure(final_path, "write");
    return;  // torn tmp (if any) is left for the liveness-aware sweeper
  }
  std::error_code ec;
  if constexpr (Kind::kRenameSite.has_value()) {
    if (FaultInjector::global().trip_io(*Kind::kRenameSite)) {
      fs::remove(tmp_path, ec);
      note_store_failure(final_path, "rename (injected)");
      return;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    note_store_failure(final_path, "rename");
    return;
  }
  if (file_cap_ > 0) enforce_file_cap();
}

template <class Kind>
std::optional<typename TwoTierStore<Kind>::Found> TwoTierStore<Kind>::lookup(
    const std::string& key) {
  {
    std::lock_guard lock(mu_);
    if (auto value = memory_.get(key)) return Found{std::move(*value), false};
  }
  if (!has_disk_tier()) return std::nullopt;
  // Disk I/O outside the lock; a racing store of the same key is benign
  // (same bytes by construction — keys are content hashes).
  auto value = disk_load(key);
  if (!value) return std::nullopt;
  {
    std::lock_guard lock(mu_);
    memory_.put(key, *value);
  }
  return Found{std::move(*value), true};
}

template <class Kind>
void TwoTierStore<Kind>::store(const std::string& key, Value value) {
  // Disk first, so the value can then move into memory.
  if (has_disk_tier()) disk_write(key, value);
  std::lock_guard lock(mu_);
  memory_.put(key, std::move(value));
}

template <class Kind>
void TwoTierStore<Kind>::erase(const std::string& key) {
  {
    std::lock_guard lock(mu_);
    memory_.erase(key);
  }
  if (!has_disk_tier()) return;
  std::error_code ec;
  fs::remove(disk_path(key), ec);
}

template <class Kind>
void TwoTierStore<Kind>::enforce_file_cap() {
  auto files = list_files(dir_, Kind::kExt);
  if (files.size() <= file_cap_) return;
  std::sort(files.begin(), files.end());
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < files.size() - file_cap_; ++i) {
    // Cap-based eviction is GC too: same gc.remove fault site as the
    // size-budgeted sweep, so the soak can starve it deterministically.
    if (FaultInjector::global().trip_io(Site::GcRemove)) continue;
    std::error_code rm;
    if (fs::remove(files[i].second, rm)) ++removed;
  }
  std::lock_guard lock(mu_);
  cap_evictions_ += removed;
}

template <class Kind>
std::uint64_t TwoTierStore<Kind>::evictions() const {
  std::lock_guard lock(mu_);
  return memory_.evictions() + cap_evictions_;
}

template <class Kind>
std::uint64_t TwoTierStore<Kind>::entries() const {
  if (Kind::kEntriesCountFiles && has_disk_tier())
    return list_files(dir_, Kind::kExt).size();
  std::lock_guard lock(mu_);
  return memory_.size();
}

template class TwoTierStore<ResultKind>;
template class TwoTierStore<CheckpointKind>;

// --- ResultCache -----------------------------------------------------------

ResultCache::ResultCache(const CacheConfig& cfg)
    : TwoTierStore(cfg.memory_capacity, cfg.disk_dir),
      memo_(cfg.memory_capacity) {}

std::optional<ResultCache::Hit> ResultCache::lookup(const std::string& key) {
  auto found = TwoTierStore::lookup(key);
  if (!found) return std::nullopt;
  return Hit{found->value.outcome, std::move(found->value.result_json),
             found->from_disk};
}

void ResultCache::store(const std::string& key, core::Outcome outcome,
                        const std::string& result_json) {
  if (cacheable(outcome)) TwoTierStore::store(key, {outcome, result_json});
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
