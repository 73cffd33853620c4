// server::diskstore — the crash-safety primitives under the shared on-disk
// cache (DESIGN.md §15): the trailing content digest sealed into every disk
// artifact, pid-liveness-aware tmp hygiene, the advisory directory lock,
// size-budgeted GC with its gc.remove fault site, the DiskJanitor's instance
// registry, both kinds of the two-tier store driven directly (fault sites,
// quarantine, promotion, the checkpoint file cap), and a fork-based
// multi-process stress run proving N writers and M readers on ONE directory
// never observe torn bytes.
#include <gtest/gtest.h>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "server/cache.hpp"
#include "server/diskstore.hpp"
#include "util/budget.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

namespace fs = std::filesystem;
using namespace aadlsched;
using server::DirLock;
using server::DiskJanitor;
using server::ResultCache;
using util::FaultInjector;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/aadlsched_diskstore_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) ADD_FAILURE() << "mkdtemp failed";
  return tmpl;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << body;
}

/// Backdate a file's atime AND mtime `seconds` into the past, so GC's
/// recency order (max of the two) is deterministic regardless of mount
/// options.
void age_file(const std::string& path, long seconds) {
  struct timeval tv[2];
  ::gettimeofday(&tv[0], nullptr);
  tv[0].tv_sec -= seconds;
  tv[1] = tv[0];
  ASSERT_EQ(::utimes(path.c_str(), tv), 0) << path;
}

/// Fork a child that exits immediately; returns its (reaped, so provably
/// dead) pid.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  return pid;
}

// --- content digests ----------------------------------------------------

TEST(Digest, SealRoundTrips) {
  std::string body = "{\"outcome\": \"schedulable\"}\n";
  const std::string payload = body;
  util::append_digest(body);
  EXPECT_NE(body, payload);
  const auto stripped = util::strip_trailing_digest(body);
  ASSERT_TRUE(stripped.has_value());
  EXPECT_EQ(*stripped, payload);
}

TEST(Digest, RejectsTamperTruncationAndTrailingBytes) {
  std::string body = "line one\nline two\n";
  util::append_digest(body);
  ASSERT_TRUE(util::strip_trailing_digest(body));

  std::string flipped = body;
  flipped[0] = 'L';  // one payload bit differs
  EXPECT_FALSE(util::strip_trailing_digest(flipped));

  // Truncation anywhere — mid-payload or mid-digest — fails.
  for (std::size_t keep : {body.size() - 1, body.size() / 2, std::size_t{0}})
    EXPECT_FALSE(util::strip_trailing_digest(body.substr(0, keep)))
        << "kept " << keep << " bytes";

  // Bytes after the digest line mean the digest is not the final seal.
  EXPECT_FALSE(util::strip_trailing_digest(body + "x"));
  // A pre-digest-era file has no seal at all.
  EXPECT_FALSE(util::strip_trailing_digest("{\"outcome\": \"x\"}\n"));
}

// --- pid liveness and tmp hygiene ---------------------------------------

TEST(DiskStore, PidLiveness) {
  EXPECT_TRUE(server::pid_alive(::getpid()));
  EXPECT_TRUE(server::pid_alive(1));  // init: EPERM, conservatively alive
  EXPECT_FALSE(server::pid_alive(0));
  EXPECT_FALSE(server::pid_alive(-1));
  EXPECT_FALSE(server::pid_alive(dead_pid()));
}

TEST(DiskStore, SweepReapsOnlyDeadOwnersOrExpiredFiles) {
  const std::string dir = make_temp_dir();
  const std::string dead = std::to_string(dead_pid());
  const std::string live = std::to_string(::getpid());

  write_file(dir + "/a.json.tmp." + dead, "torn");      // dead owner: reap
  write_file(dir + "/b.ckpt.tmp." + dead, "torn");      // dead owner: reap
  write_file(dir + "/c.json.tmp." + live, "inflight");  // live + fresh: keep
  write_file(dir + "/d.json.tmp." + live, "old");       // live but expired
  age_file(dir + "/d.json.tmp." + live, 4000);
  write_file(dir + "/final.json", "{}");  // not a tmp file: never touched

  EXPECT_EQ(server::sweep_stale_tmp_files(dir, 3600), 3u);
  EXPECT_FALSE(fs::exists(dir + "/a.json.tmp." + dead));
  EXPECT_FALSE(fs::exists(dir + "/b.ckpt.tmp." + dead));
  EXPECT_TRUE(fs::exists(dir + "/c.json.tmp." + live));
  EXPECT_FALSE(fs::exists(dir + "/d.json.tmp." + live));
  EXPECT_TRUE(fs::exists(dir + "/final.json"));

  // Idempotent: nothing left to reap.
  EXPECT_EQ(server::sweep_stale_tmp_files(dir, 3600), 0u);
  fs::remove_all(dir);
}

// --- DirLock ------------------------------------------------------------

TEST(DiskStore, DirLockExcludesASecondHolder) {
  const std::string dir = make_temp_dir();
  DirLock first(dir);
  DirLock second(dir);  // separate fd: flock contends even in-process

  ASSERT_TRUE(first.lock());
  EXPECT_TRUE(first.held());
  EXPECT_FALSE(second.try_lock());
  first.unlock();
  EXPECT_FALSE(first.held());
  EXPECT_TRUE(second.try_lock());
  second.unlock();
  fs::remove_all(dir);
}

TEST(DiskStore, DirLockScopeReleasesOnDestruction) {
  const std::string dir = make_temp_dir();
  DirLock lock(dir);
  DirLock probe(dir);
  {
    DirLock::Scope scope(lock);
    EXPECT_TRUE(scope.ok());
    EXPECT_FALSE(probe.try_lock());
  }
  EXPECT_TRUE(probe.try_lock());
  probe.unlock();
  fs::remove_all(dir);
}

// --- size-budgeted GC ---------------------------------------------------

TEST(DiskStore, GcEvictsOldestFirstUntilUnderCap) {
  const std::string dir = make_temp_dir();
  const std::string pad(100, 'x');
  // Four 100-byte artifacts, oldest to newest; a 250-byte cap must evict
  // exactly the two oldest.
  write_file(dir + "/old1.json", pad);
  age_file(dir + "/old1.json", 400);
  write_file(dir + "/old2.ckpt", pad);
  age_file(dir + "/old2.ckpt", 300);
  write_file(dir + "/new1.json", pad);
  age_file(dir + "/new1.json", 200);
  write_file(dir + "/new2.json", pad);
  age_file(dir + "/new2.json", 100);
  write_file(dir + "/notes.txt", pad);  // foreign extension: not GC'd

  const auto st = server::run_disk_gc(dir, 250);
  EXPECT_EQ(st.runs, 1u);
  EXPECT_EQ(st.removed_files, 2u);
  EXPECT_EQ(st.removed_bytes, 200u);
  EXPECT_EQ(st.remove_failures, 0u);
  EXPECT_FALSE(fs::exists(dir + "/old1.json"));
  EXPECT_FALSE(fs::exists(dir + "/old2.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/new1.json"));
  EXPECT_TRUE(fs::exists(dir + "/new2.json"));
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));

  // cap 0 = no budget: evaluates nothing, removes nothing.
  const auto off = server::run_disk_gc(dir, 0);
  EXPECT_EQ(off.removed_files, 0u);
  EXPECT_TRUE(fs::exists(dir + "/new1.json"));
  fs::remove_all(dir);
}

TEST(DiskStore, GcRemoveFaultSiteLeavesTheFileAndCounts) {
  const std::string dir = make_temp_dir();
  write_file(dir + "/a.json", std::string(100, 'x'));
  age_file(dir + "/a.json", 200);
  write_file(dir + "/b.json", std::string(100, 'x'));
  age_file(dir + "/b.json", 100);

  // Every removal fails; the files stay, the failures are counted, and GC
  // terminates anyway (no retry loop on a dead disk).
  FaultInjector::global().arm(FaultInjector::Site::GcRemove, 1,
                              util::StopReason::Fault, 1000);
  const auto st = server::run_disk_gc(dir, 50);
  FaultInjector::global().disarm();
  EXPECT_EQ(st.removed_files, 0u);
  EXPECT_EQ(st.remove_failures, 2u);
  EXPECT_TRUE(fs::exists(dir + "/a.json"));
  EXPECT_TRUE(fs::exists(dir + "/b.json"));
  fs::remove_all(dir);
}

// --- DiskJanitor --------------------------------------------------------

TEST(DiskStore, JanitorRegistryTracksCohabitantsAndReapsDead) {
  const std::string dir = make_temp_dir();
  DiskJanitor janitor({dir});
  const std::string self = dir + "/.instances/" + std::to_string(::getpid());
  EXPECT_TRUE(fs::exists(self));

  // A cohabitant that was kill -9'd never deregistered; one with pid 1 is
  // (conservatively) alive. The scan reaps the former, counts the latter.
  const std::string stale =
      dir + "/.instances/" + std::to_string(dead_pid());
  write_file(stale, "pid 99999\nstarted 2026-08-08T00:00:00\n");
  write_file(dir + "/.instances/1", "pid 1\nstarted 2026-08-08T00:00:00\n");

  const auto live = janitor.live_instances();
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(janitor.instances_gauge(), 2u);
  EXPECT_FALSE(fs::exists(stale));
  bool saw_self = false;
  for (const auto& inst : live) saw_self |= inst.pid == ::getpid();
  EXPECT_TRUE(saw_self);

  fs::remove(dir + "/.instances/1");
  EXPECT_EQ(janitor.live_instances().size(), 1u);
  EXPECT_EQ(janitor.instances_gauge(), 1u);
  fs::remove_all(dir);
}

TEST(DiskStore, JanitorDeregistersOnDestruction) {
  const std::string dir = make_temp_dir();
  const std::string self = dir + "/.instances/" + std::to_string(::getpid());
  {
    DiskJanitor janitor({dir});
    EXPECT_TRUE(fs::exists(self));
  }
  EXPECT_FALSE(fs::exists(self));
  fs::remove_all(dir);
}

TEST(DiskStore, JanitorSweepEnforcesTheSizeBudget) {
  const std::string dir = make_temp_dir();
  const std::string pad(100, 'x');
  write_file(dir + "/old.json", pad);
  age_file(dir + "/old.json", 300);
  write_file(dir + "/new.json", pad);
  age_file(dir + "/new.json", 100);
  write_file(dir + "/torn.json.tmp." + std::to_string(dead_pid()), "half");

  DiskJanitor::Config cfg;
  cfg.dir = dir;
  cfg.cap_bytes = 150;
  DiskJanitor janitor(cfg);
  janitor.sweep();

  const auto st = janitor.gc_stats();
  EXPECT_EQ(st.runs, 1u);
  EXPECT_EQ(st.removed_files, 1u);
  EXPECT_EQ(st.removed_bytes, 100u);
  EXPECT_EQ(st.tmp_swept, 1u);
  EXPECT_FALSE(fs::exists(dir + "/old.json"));
  EXPECT_TRUE(fs::exists(dir + "/new.json"));

  janitor.sweep();  // under budget now: counters stay put except runs
  EXPECT_EQ(janitor.gc_stats().runs, 2u);
  EXPECT_EQ(janitor.gc_stats().removed_files, 1u);
  fs::remove_all(dir);
}

// --- store fault sites --------------------------------------------------

TEST(DiskStore, InjectedRenameFailureIsCountedAndMemoryStillServes) {
  const std::string dir = make_temp_dir();
  server::CacheConfig cfg;
  cfg.disk_dir = dir;
  ResultCache cache(cfg);

  const std::string body = "{\"outcome\": \"schedulable\"}";
  FaultInjector::global().arm(FaultInjector::Site::CacheRename, 1);
  cache.store("k1", core::Outcome::Schedulable, body);
  FaultInjector::global().disarm();

  EXPECT_EQ(cache.disk_store_failures(), 1u);
  EXPECT_FALSE(fs::exists(dir + "/k1.json"));  // no torn final file either
  const auto hit = cache.lookup("k1");  // the memory tier is unaffected
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result_json, body);
  EXPECT_FALSE(hit->from_disk);

  // With the injector quiet the next store lands on disk.
  cache.store("k2", core::Outcome::Schedulable, body);
  EXPECT_EQ(cache.disk_store_failures(), 1u);
  EXPECT_TRUE(fs::exists(dir + "/k2.json"));
  fs::remove_all(dir);
}

TEST(DiskStore, InjectedWriteFailureLeavesATornTmpForTheSweeper) {
  const std::string dir = make_temp_dir();
  server::CacheConfig cfg;
  cfg.disk_dir = dir;
  ResultCache cache(cfg);

  FaultInjector::global().arm(FaultInjector::Site::CacheWrite, 1);
  cache.store("k1", core::Outcome::Schedulable,
              "{\"outcome\": \"schedulable\"}");
  FaultInjector::global().disarm();

  EXPECT_EQ(cache.disk_store_failures(), 1u);
  const std::string tmp =
      dir + "/k1.json.tmp." + std::to_string(::getpid());
  EXPECT_TRUE(fs::exists(tmp));  // the kill -9 torn-file shape
  // Inside the grace window with a live owner, the sweeper leaves it; once
  // the owner is "dead" (grace expired here), it reaps it.
  EXPECT_EQ(server::sweep_stale_tmp_files(dir, 3600), 0u);
  age_file(tmp, 4000);
  EXPECT_EQ(server::sweep_stale_tmp_files(dir, 3600), 1u);
  fs::remove_all(dir);
}

// --- the checkpoint kind --------------------------------------------------

/// A blob sealed the way versa::serialize_checkpoint seals one; the store
/// checks only the seal, never the wavefront inside.
std::string sealed_blob(const std::string& payload) {
  std::string blob = payload + "\n";
  util::append_digest(blob);
  return blob;
}

TEST(CheckpointStore, TornFileIsQuarantinedAndCountedOnce) {
  const std::string dir = make_temp_dir();
  const std::string blob = sealed_blob("wavefront " + std::string(200, 'w'));
  server::CheckpointStore(4, dir, 16).store("k1", blob);
  const std::string path = dir + "/k1.ckpt";
  ASSERT_TRUE(fs::exists(path));
  write_file(path, blob.substr(0, blob.size() / 2));  // a killed writer

  server::CheckpointStore store(4, dir, 16);  // cold memory tier
  EXPECT_FALSE(store.lookup("k1").has_value());
  EXPECT_EQ(store.corrupt_evictions(), 1u);
  EXPECT_FALSE(fs::exists(path));
  // The quarantined file is gone: the next lookup is a plain miss.
  EXPECT_FALSE(store.lookup("k1").has_value());
  EXPECT_EQ(store.corrupt_evictions(), 1u);
  fs::remove_all(dir);
}

TEST(CheckpointStore, DiskHitIsPromotedIntoMemory) {
  const std::string dir = make_temp_dir();
  const std::string blob = sealed_blob("wavefront");
  server::CheckpointStore(4, dir, 16).store("k1", blob);

  server::CheckpointStore store(4, dir, 16);
  const auto cold = store.lookup("k1");
  ASSERT_TRUE(cold.has_value());
  EXPECT_TRUE(cold->from_disk);
  EXPECT_EQ(cold->value, blob);  // the seal stays: parse_checkpoint wants it

  fs::remove(dir + "/k1.ckpt");
  const auto warm = store.lookup("k1");
  ASSERT_TRUE(warm.has_value());
  EXPECT_FALSE(warm->from_disk);
  EXPECT_EQ(warm->value, blob);
  fs::remove_all(dir);
}

TEST(CheckpointStore, FileCapEvictsOldestFirst) {
  const std::string dir = make_temp_dir();
  server::CheckpointStore store(4, dir, 2);
  store.store("old", sealed_blob("old"));
  age_file(dir + "/old.ckpt", 300);
  store.store("mid", sealed_blob("mid"));
  age_file(dir + "/mid.ckpt", 200);
  store.store("new", sealed_blob("new"));

  EXPECT_FALSE(fs::exists(dir + "/old.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/mid.ckpt"));
  EXPECT_TRUE(fs::exists(dir + "/new.ckpt"));
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.entries(), 2u);  // the files, not the 3 memory entries
  fs::remove_all(dir);
}

TEST(CheckpointStore, InjectedWriteFailureIsCountedAndMemoryStillServes) {
  const std::string dir = make_temp_dir();
  server::CheckpointStore store(4, dir, 16);
  const std::string blob = sealed_blob("wavefront");

  FaultInjector::global().arm(FaultInjector::Site::CkptWrite, 1);
  store.store("k1", blob);
  FaultInjector::global().disarm();

  EXPECT_EQ(store.disk_store_failures(), 1u);
  EXPECT_FALSE(fs::exists(dir + "/k1.ckpt"));
  const auto hit = store.lookup("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->from_disk);
  EXPECT_EQ(hit->value, blob);
  fs::remove_all(dir);
}

// --- multi-process stress -----------------------------------------------

/// The shared-directory invariant, end to end: forked writer processes
/// hammer one cache directory while forked readers continuously open it
/// cold and look keys up. Readers must only ever observe byte-exact,
/// digest-verified entries (tmp + rename + seal make torn reads
/// impossible); any mismatch or quarantine in a child fails the test via
/// its exit code.
TEST(DiskStore, MultiProcessWritersAndReadersNeverSeeTornBytes) {
  const std::string dir = make_temp_dir();
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kKeys = 24;
  constexpr int kRounds = 40;

  // Deterministic per-key body, so every writer of a key writes identical
  // bytes — the invariant real keys (content hashes) guarantee.
  const auto key_of = [](int i) { return "stress" + std::to_string(i); };
  const auto body_of = [](int i) {
    return "{\"outcome\": \"schedulable\", \"k\": " + std::to_string(i) +
           ", \"pad\": \"" + std::string(64 + i, 'p') + "\"}";
  };

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      server::CacheConfig cfg;
      cfg.disk_dir = dir;
      ResultCache cache(cfg);
      for (int round = 0; round < kRounds; ++round)
        for (int i = w; i < kKeys; i += kWriters)
          cache.store(key_of(i), core::Outcome::Schedulable, body_of(i));
      ::_exit(cache.disk_store_failures() == 0 ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (int r = 0; r < kReaders; ++r) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int failures = 0;
      for (int round = 0; round < kRounds; ++round) {
        // A cold open every round: all hits come from disk, every one
        // digest-verified.
        server::CacheConfig cfg;
        cfg.disk_dir = dir;
        ResultCache cache(cfg);
        for (int i = 0; i < kKeys; ++i) {
          const int key = (i * 7 + r) % kKeys;
          const auto hit = cache.lookup(key_of(key));
          if (!hit) continue;  // not written yet: a miss is fine
          if (hit->result_json != body_of(key)) ++failures;
          if (hit->outcome != core::Outcome::Schedulable) ++failures;
        }
        // The writers only ever publish sealed, complete files; a reader
        // must never trip quarantine.
        if (cache.corrupt_evictions() != 0) ++failures;
      }
      ::_exit(failures == 0 ? 0 : 1);
    }
    children.push_back(pid);
  }

  for (const pid_t pid : children) {
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0)
        << "child " << pid << " failed";
  }

  // Quiesced: every key is present, sealed, and serves its exact bytes.
  server::CacheConfig cfg;
  cfg.disk_dir = dir;
  ResultCache cache(cfg);
  for (int i = 0; i < kKeys; ++i) {
    const auto hit = cache.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << key_of(i);
    EXPECT_EQ(hit->result_json, body_of(i));
  }
  EXPECT_EQ(cache.corrupt_evictions(), 0u);
  // No writer left a tmp file behind (all were renamed or cleaned).
  for (const auto& ent : fs::directory_iterator(dir))
    EXPECT_EQ(ent.path().string().find(".tmp."), std::string::npos)
        << ent.path();
  fs::remove_all(dir);
}

}  // namespace
