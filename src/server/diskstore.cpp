#include "server/diskstore.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "util/budget.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::server {

namespace fs = std::filesystem;

namespace {

/// Age of a file in seconds by its last write time; 0 on stat failure (a
/// file we cannot stat is treated as brand new, i.e. never grace-expired).
double file_age_seconds(const fs::path& p) {
  std::error_code ec;
  const auto wt = fs::last_write_time(p, ec);
  if (ec) return 0;
  const auto now = fs::file_time_type::clock::now();
  return std::chrono::duration<double>(now - wt).count();
}

/// Pid suffix of "<name>.tmp.<pid>"; nullopt when the suffix is not a pid.
std::optional<pid_t> tmp_owner_pid(const std::string& name) {
  const auto pos = name.rfind(".tmp.");
  if (pos == std::string::npos) return std::nullopt;
  const auto n = util::parse_int64(std::string_view(name).substr(pos + 5));
  if (!n || *n <= 0) return std::nullopt;
  return static_cast<pid_t>(*n);
}

std::string wallclock_now() {
  const std::time_t t = std::time(nullptr);
  char buf[32];
  std::tm tm{};
  if (localtime_r(&t, &tm) == nullptr ||
      std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S", &tm) == 0)
    return "?";
  return buf;
}

/// Recency for GC eviction order: prefer atime (a read IS a use — disk hits
/// promote warm entries), but relatime mounts update it lazily, so take the
/// newer of atime and mtime.
std::int64_t recency_seconds(const fs::path& p) {
  struct stat st{};
  if (::stat(p.c_str(), &st) != 0) return 0;
  return std::max<std::int64_t>(st.st_atime, st.st_mtime);
}

}  // namespace

// --- pid liveness and tmp hygiene ------------------------------------------

bool pid_alive(pid_t pid) {
  if (pid <= 0) return false;
  if (::kill(pid, 0) == 0) return true;
  return errno != ESRCH;  // EPERM: exists but not ours -> alive
}

std::uint64_t sweep_stale_tmp_files(const std::string& dir,
                                    double grace_seconds) {
  std::uint64_t removed = 0;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    if (!ent.is_regular_file(ec)) continue;
    const std::string name = ent.path().filename().string();
    if (name.find(".tmp.") == std::string::npos) continue;
    // A live sibling may be between its tmp write and the rename right now;
    // only reap when the owner is provably gone or the file has outlived
    // the grace window (covers pid reuse and writers on other hosts).
    const auto owner = tmp_owner_pid(name);
    const bool owner_dead = owner && !pid_alive(*owner);
    const bool expired = file_age_seconds(ent.path()) > grace_seconds;
    if (!owner_dead && !expired) continue;
    std::error_code rm;
    if (fs::remove(ent.path(), rm)) ++removed;
  }
  return removed;
}

// --- DirLock ----------------------------------------------------------------

DirLock::DirLock(std::string dir) : path_(std::move(dir) + "/.dirlock") {}

DirLock::~DirLock() {
  unlock();
  if (fd_ >= 0) ::close(fd_);
}

bool DirLock::lock() {
  if (held_) return true;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return false;
  }
  int rc;
  do {
    rc = ::flock(fd_, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  held_ = rc == 0;
  return held_;
}

bool DirLock::try_lock() {
  if (held_) return true;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) return false;
  }
  held_ = ::flock(fd_, LOCK_EX | LOCK_NB) == 0;
  return held_;
}

void DirLock::unlock() {
  if (!held_) return;
  ::flock(fd_, LOCK_UN);
  held_ = false;
}

// --- size-budgeted GC -------------------------------------------------------

GcStats run_disk_gc(const std::string& dir, std::uint64_t cap_bytes) {
  GcStats st;
  st.runs = 1;
  if (cap_bytes == 0) return st;

  struct Victim {
    std::int64_t recency;
    std::uint64_t size;
    fs::path path;
  };
  std::vector<Victim> files;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& ent : fs::directory_iterator(dir, ec)) {
    if (!ent.is_regular_file(ec)) continue;
    const auto ext = ent.path().extension();
    // Daemons older than the removal of warm re-exploration (DESIGN.md §12)
    // left `.ckpt` files in directories this one may share. Nothing reads
    // them any more, so they count against the budget and are evicted
    // like any other artifact.
    if (ext != ".json" && ext != ".ckpt") continue;
    std::error_code sz;
    const std::uint64_t size = ent.file_size(sz);
    if (sz) continue;
    total += size;
    files.push_back({recency_seconds(ent.path()), size, ent.path()});
  }
  if (total <= cap_bytes) return st;

  std::sort(files.begin(), files.end(),
            [](const Victim& a, const Victim& b) {
              return a.recency != b.recency ? a.recency < b.recency
                                            : a.path < b.path;
            });
  auto& injector = util::FaultInjector::global();
  for (const Victim& v : files) {
    if (total <= cap_bytes) break;
    if (injector.trip_io(util::FaultInjector::Site::GcRemove)) {
      ++st.remove_failures;  // injected: the file stays, bytes stay counted
      continue;
    }
    std::error_code rm;
    if (fs::remove(v.path, rm)) {
      ++st.removed_files;
      st.removed_bytes += v.size;
      total -= v.size;
    } else {
      ++st.remove_failures;
    }
  }
  return st;
}

// --- DiskJanitor ------------------------------------------------------------

DiskJanitor::DiskJanitor(Config cfg) : cfg_(std::move(cfg)), lock_(cfg_.dir) {
  std::error_code ec;
  fs::create_directories(cfg_.dir + "/.instances", ec);
  self_entry_ = cfg_.dir + "/.instances/" + std::to_string(::getpid());
  register_self();
}

DiskJanitor::~DiskJanitor() { deregister_self(); }

void DiskJanitor::register_self() {
  std::lock_guard op(op_mu_);
  DirLock::Scope scope(lock_);
  std::ofstream out(self_entry_, std::ios::trunc);
  if (out)
    out << "pid " << ::getpid() << "\nstarted " << wallclock_now() << "\n";
}

void DiskJanitor::deregister_self() {
  std::lock_guard op(op_mu_);
  DirLock::Scope scope(lock_);
  std::error_code ec;
  fs::remove(self_entry_, ec);
}

std::vector<InstanceInfo> DiskJanitor::scan_registry() {
  std::vector<InstanceInfo> live;
  std::error_code ec;
  for (const auto& ent :
       fs::directory_iterator(cfg_.dir + "/.instances", ec)) {
    if (!ent.is_regular_file(ec)) continue;
    const auto n = util::parse_int64(ent.path().filename().string());
    if (!n || *n <= 0) continue;
    const pid_t pid = static_cast<pid_t>(*n);
    if (!pid_alive(pid)) {
      // A daemon that died (or was kill -9'd) never deregistered; reap its
      // entry so the cohabitant count converges.
      std::error_code rm;
      fs::remove(ent.path(), rm);
      continue;
    }
    InstanceInfo info;
    info.pid = pid;
    std::ifstream in(ent.path());
    std::string key;
    while (in >> key) {
      if (key == "started") {
        in >> info.started;
        break;
      }
    }
    live.push_back(std::move(info));
  }
  instances_.store(live.size(), std::memory_order_relaxed);
  return live;
}

std::vector<InstanceInfo> DiskJanitor::live_instances() {
  std::lock_guard op(op_mu_);
  DirLock::Scope scope(lock_);
  return scan_registry();
}

void DiskJanitor::sweep() {
  std::uint64_t tmp_removed = 0;
  GcStats pass;
  {
    std::lock_guard op(op_mu_);
    DirLock::Scope scope(lock_);
    // Proceed even when scope.ok() is false (lock file unopenable, e.g. a
    // read-only dir): an unlocked sweep is still correct for this process
    // alone, and the alternative is never cleaning up at all.
    scan_registry();  // reap dead entries + refresh the cohabitant gauge
    tmp_removed = sweep_stale_tmp_files(cfg_.dir, cfg_.tmp_grace_seconds);
    if (cfg_.cap_bytes > 0) pass = run_disk_gc(cfg_.dir, cfg_.cap_bytes);
  }
  std::lock_guard guard(mu_);
  gc_.runs += pass.runs;
  gc_.removed_files += pass.removed_files;
  gc_.removed_bytes += pass.removed_bytes;
  gc_.remove_failures += pass.remove_failures;
  gc_.tmp_swept += tmp_removed;
}

GcStats DiskJanitor::gc_stats() const {
  std::lock_guard guard(mu_);
  return gc_;
}

}  // namespace aadlsched::server
