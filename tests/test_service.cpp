// server::Service — the in-process analysis service behind aadlschedd
// (DESIGN.md §11): cache hit/miss behavior, the exact-repeat memo, the
// conclusive-only caching policy, the disk tier across a "restart", request
// coalescing, admission order, protocol round trips, and multi-threaded
// workloads whose stats must stay monotonic and conserved. The concurrent
// tests run under the tsan ctest label.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/cache.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"

namespace {

using namespace aadlsched;
using server::Op;
using server::Request;
using server::Response;
using server::Service;
using server::ServiceConfig;

// --- fixtures -----------------------------------------------------------

/// Minimal one-thread system; compute/period/deadline in ms decide the
/// verdict (2/10/10 schedulable, 12/10/10 not).
std::string tiny_model(int compute_ms, int period_ms, int deadline_ms) {
  std::ostringstream os;
  os << "package Tiny\npublic\n"
     << "  processor CPU\n  properties\n"
     << "    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;\n  end CPU;\n"
     << "  thread T\n  end T;\n"
     << "  thread implementation T.impl\n  properties\n"
     << "    Dispatch_Protocol => Periodic;\n"
     << "    Period => " << period_ms << " ms;\n"
     << "    Compute_Execution_Time => " << compute_ms << " ms .. "
     << compute_ms << " ms;\n"
     << "    Deadline => " << deadline_ms << " ms;\n  end T.impl;\n"
     << "  system App\n  end App;\n"
     << "  system implementation App.impl\n  subcomponents\n"
     << "    t : thread T.impl;\n  end App.impl;\n"
     << "  system Root\n  end Root;\n"
     << "  system implementation Root.impl\n  subcomponents\n"
     << "    app : system App.impl;\n    cpu : processor CPU;\n"
     << "  properties\n"
     << "    Actual_Processor_Binding => reference (cpu) applies to app;\n"
     << "  end Root.impl;\nend Tiny;\n";
  return os.str();
}

std::string storm_text() {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/storm.aadl");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Request analyze(const std::string& model, const std::string& id = "",
                const std::string& root = "Root.impl") {
  Request req;
  req.op = Op::Analyze;
  req.model = model;
  req.root = root;
  req.id = id;
  req.options.run_lint = false;
  return req;
}

util::JsonValue stats_of(Service& svc) {
  auto v = util::parse_json(svc.stats_json());
  EXPECT_TRUE(v.has_value());
  return v ? *v : util::JsonValue();
}

std::int64_t stat(const util::JsonValue& s, const char* a,
                  const char* b = nullptr) {
  const util::JsonValue* v = s.get(a);
  if (v && b) v = v->get(b);
  return v ? v->as_int(-1) : -1;
}

// --- cache behavior -----------------------------------------------------

TEST(Service, SecondSubmitIsAMemoryHit) {
  Service svc;
  const Request req = analyze(tiny_model(2, 10, 10), "r1");

  const Response cold = svc.handle(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.outcome, core::Outcome::Schedulable);
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(cold.id, "r1");
  EXPECT_EQ(cold.fingerprint.size(), 32u);
  EXPECT_NE(cold.result_json.find("\"schema_version\""), std::string::npos);

  const Response warm = svc.handle(req);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.cache_tier, "memory");
  EXPECT_EQ(warm.fingerprint, cold.fingerprint);
  // The acceptance bar: a cache hit returns the stored bytes verbatim.
  EXPECT_EQ(warm.result_json, cold.result_json);

  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 1);
  EXPECT_EQ(stat(s, "cache", "hits_memory"), 1);
  EXPECT_EQ(stat(s, "cache", "misses"), 1);
  EXPECT_EQ(stat(s, "cache", "stores"), 1);
  EXPECT_EQ(stat(s, "cache", "entries"), 1);
  EXPECT_EQ(stat(s, "outcomes", "schedulable"), 2);
}

TEST(Service, NoCacheBypassesLookupAndStore) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  req.no_cache = true;
  EXPECT_FALSE(svc.handle(req).cached);
  EXPECT_FALSE(svc.handle(req).cached);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 2);
  EXPECT_EQ(stat(s, "cache", "stores"), 0);
  EXPECT_EQ(stat(s, "cache", "entries"), 0);
}

TEST(Service, SemanticOptionsSplitTheKey) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  const Response a = svc.handle(req);
  req.options.quantum_ns = 2'000'000;  // different quantum, different verdict space
  const Response b = svc.handle(req);
  EXPECT_FALSE(b.cached);  // same model text, distinct cache entry
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(stat(stats_of(svc), "cache", "entries"), 2);
}

TEST(Service, InconclusiveOutcomesAreNeverCached) {
  Service svc;
  Request req = analyze(storm_text(), "", "Storm.impl");
  req.options.max_states = 200;  // storm cannot conclude in 200 states
  const Response first = svc.handle(req);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.outcome, core::Outcome::Inconclusive);
  EXPECT_NE(first.result_json.find("\"stop_reason\""), std::string::npos);
  const Response second = svc.handle(req);
  EXPECT_FALSE(second.cached);  // a truncated run is budget-dependent
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 2);
  EXPECT_EQ(stat(s, "cache", "stores"), 0);
  EXPECT_EQ(stat(s, "outcomes", "inconclusive"), 2);
}

TEST(Service, FrontEndErrorIsImmediateAndUncached) {
  Service svc;
  const Response resp = svc.handle(analyze("this is not aadl"));
  ASSERT_TRUE(resp.ok);  // protocol-level success; analysis outcome is Error
  EXPECT_EQ(resp.outcome, core::Outcome::Error);
  EXPECT_NE(resp.result_json.find("\"error\""), std::string::npos);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 0);  // never reached a worker
  EXPECT_EQ(stat(s, "outcomes", "error"), 1);
}

// --- exact-repeat memo (cache.hpp) --------------------------------------

/// tiny_model(2, 10, 10) plus a second root, Root.slow, whose thread
/// overruns its period: one text, two roots, two verdicts.
std::string two_root_model() {
  std::string text = tiny_model(2, 10, 10);
  text.insert(text.rfind("end Tiny;"),
              "  thread implementation T.slow\n  properties\n"
              "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
              "    Compute_Execution_Time => 12 ms .. 12 ms;\n"
              "    Deadline => 10 ms;\n  end T.slow;\n"
              "  system implementation Root.slow\n  subcomponents\n"
              "    t : thread T.slow;\n    cpu : processor CPU;\n"
              "  properties\n"
              "    Actual_Processor_Binding => reference (cpu) applies to t;\n"
              "  end Root.slow;\n");
  return text;
}

/// A response line with its served_ms value cut out: the one field two
/// answers from the same cache entry may differ in.
std::string without_served_ms(std::string line) {
  const std::string field = "\"served_ms\": ";
  const std::size_t at = line.find(field);
  if (at == std::string::npos) return line;
  const std::size_t from = at + field.size();
  return line.erase(from, line.find_first_of(",}", from) - from);
}

TEST(Service, ExactRepeatSkipsTheFrontEndWithSlowPathBytes) {
  Service svc;
  const std::string model = tiny_model(2, 10, 10);
  const std::string exact = server::render_request(analyze(model, "w"));
  const std::string commented =
      server::render_request(analyze(model + "-- saved again\n", "w"));
  svc.handle_line(exact);                             // cold
  const std::string slow = svc.handle_line(commented);  // new bytes: front end
  const std::string memo = svc.handle_line(exact);      // repeat: no front end
  ASSERT_NE(slow.find("\"cache_tier\": \"memory\""), std::string::npos)
      << slow;
  EXPECT_EQ(without_served_ms(memo), without_served_ms(slow));
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 1);
  EXPECT_EQ(stat(s, "cache", "hits_memory"), 2);
  EXPECT_EQ(stat(s, "cache", "misses"), 1);
  EXPECT_EQ(stat(s, "cache", "front_end_skips"), 1);
}

TEST(Service, WhitespaceEditHitsThroughTheFrontEndThenThroughTheMemo) {
  Service svc;
  const std::string model = tiny_model(2, 10, 10);
  std::string edited = model;
  edited.insert(edited.find("  thread T\n"), "\n\n    ");
  const Response cold = svc.handle(analyze(model));
  const Response first = svc.handle(analyze(edited));
  EXPECT_TRUE(first.cached);
  EXPECT_EQ(stat(stats_of(svc), "cache", "front_end_skips"), 0);
  const Response repeat = svc.handle(analyze(edited));
  EXPECT_TRUE(repeat.cached);
  EXPECT_EQ(repeat.cache_tier, "memory");
  EXPECT_EQ(stat(stats_of(svc), "cache", "front_end_skips"), 1);
  EXPECT_EQ(repeat.fingerprint, cold.fingerprint);
  EXPECT_EQ(repeat.result_json, cold.result_json);
}

TEST(Service, SameTextUnderAnotherRootNeverSharesAnEntry) {
  EXPECT_NE(server::front_end_digest("A", "Bx"),
            server::front_end_digest("AB", "x"));
  Service svc;
  const std::string text = two_root_model();
  const Response fast = svc.handle(analyze(text, "", "Root.impl"));
  const Response slow = svc.handle(analyze(text, "", "Root.slow"));
  EXPECT_EQ(fast.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(slow.outcome, core::Outcome::NotSchedulable);
  EXPECT_FALSE(slow.cached);
  EXPECT_NE(slow.fingerprint, fast.fingerprint);
  // Each repeat comes back through the memo with its own verdict.
  const Response fast2 = svc.handle(analyze(text, "", "Root.impl"));
  const Response slow2 = svc.handle(analyze(text, "", "Root.slow"));
  EXPECT_TRUE(fast2.cached && slow2.cached);
  EXPECT_EQ(fast2.result_json, fast.result_json);
  EXPECT_EQ(slow2.result_json, slow.result_json);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 2);
  EXPECT_EQ(stat(s, "cache", "front_end_skips"), 2);
}

TEST(Service, RequestDigestSeparatesEveryOneByteEdit) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/cruise_control.aadl");
  std::ostringstream os;
  os << in.rdbuf();
  const std::string text = os.str();
  ASSERT_GT(text.size(), 1000u);
  const std::string root = "CruiseControlSystem.impl";
  const util::Hash128 base = server::front_end_digest(root, text);
  EXPECT_EQ(server::front_end_digest(root, text), base);
  std::string edited = text;
  for (std::size_t i = 0; i < text.size(); ++i) {
    edited[i] = static_cast<char>(text[i] ^ 0x01);
    EXPECT_NE(server::front_end_digest(root, edited), base) << "byte " << i;
    edited[i] = text[i];
  }
  const std::string nul(1, '\0');
  EXPECT_NE(server::front_end_digest(root, text + nul), base);
  EXPECT_NE(server::front_end_digest(root + nul, text), base);
  EXPECT_NE(server::front_end_digest("x", ""),
            server::front_end_digest("x", nul));
  // SameTextUnderAnotherRootNeverSharesAnEntry checks the root/model split.
}

TEST(Service, FrontEndErrorIsNeverMemoized) {
  Service svc;
  const std::string model = tiny_model(2, 10, 10);
  for (const char* id : {"e1", "e2"}) {
    const Response r = svc.handle(analyze(model, id, "Missing.impl"));
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.outcome, core::Outcome::Error);
    EXPECT_FALSE(r.cached);
    EXPECT_EQ(r.cache_tier, "none");
    // The diagnostics name the request that sent the model, so an error
    // response is rebuilt for every request.
    EXPECT_NE(r.result_json.find(id), std::string::npos) << r.result_json;
  }
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 0);
  EXPECT_EQ(stat(s, "cache", "misses"), 0);
  EXPECT_EQ(stat(s, "cache", "front_end_skips"), 0);
  EXPECT_EQ(stat(s, "outcomes", "error"), 2);
  // The error left nothing behind: the good root still runs cold.
  EXPECT_FALSE(svc.handle(analyze(model)).cached);
}

TEST(Service, NoCacheSkipsTheMemo) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  ASSERT_FALSE(svc.handle(req).cached);
  req.no_cache = true;
  EXPECT_FALSE(svc.handle(req).cached);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 2);
  EXPECT_EQ(stat(s, "cache", "front_end_skips"), 0);
}

TEST(Service, MemoHitWithAnEvictedResultTakesTheFullPath) {
  // One memory slot: the memo keeps the text's fingerprint while the two
  // quanta's results evict each other.
  ServiceConfig cfg;
  cfg.cache.memory_capacity = 1;
  Service svc(cfg);
  const Request coarse = analyze(tiny_model(2, 10, 10));
  Request fine = coarse;
  fine.options.quantum_ns = 2'000'000;
  const Response c1 = svc.handle(coarse);
  const Response f1 = svc.handle(fine);    // memo hit, no result: full path
  const Response c2 = svc.handle(coarse);  // memo hit, result evicted
  EXPECT_FALSE(f1.cached);
  EXPECT_FALSE(c2.cached);
  EXPECT_EQ(c2.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(c2.fingerprint, c1.fingerprint);
  auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 3);
  EXPECT_EQ(stat(s, "cache", "misses"), 3);
  EXPECT_EQ(stat(s, "cache", "front_end_skips"), 0);
  // The entry that is there is served through the memo.
  const Response c3 = svc.handle(coarse);
  EXPECT_TRUE(c3.cached);
  EXPECT_EQ(c3.result_json, c2.result_json);
  EXPECT_EQ(stat(stats_of(svc), "cache", "front_end_skips"), 1);
}

TEST(Service, MemoHitWithoutAResultReadsTheDiskOnce) {
  // An Inconclusive result is never stored, so its repeat recalls the
  // fingerprint, misses memory and disk, and runs the front end. The front
  // end confirms the recalled fingerprint: the same key is not looked up
  // on disk a second time.
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  auto& faults = util::FaultInjector::global();
  {
    Service svc(cfg);
    Request req = analyze(storm_text(), "", "Storm.impl");
    req.options.max_states = 200;
    EXPECT_EQ(svc.handle(req).outcome, core::Outcome::Inconclusive);
    // Count result-store disk reads: armed at a probe that never comes.
    faults.arm(util::FaultInjector::Site::CacheRead,
               std::numeric_limits<std::uint64_t>::max());
    const Response again = svc.handle(req);
    const std::uint64_t reads = faults.probes();
    faults.disarm();
    EXPECT_EQ(again.outcome, core::Outcome::Inconclusive);
    EXPECT_FALSE(again.cached);
    EXPECT_EQ(reads, 1u);
    EXPECT_EQ(stat(stats_of(svc), "cache", "misses"), 2);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, ZeroMemoryCapacityNeverServesFromTheMemo) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ServiceConfig cfg;
  cfg.cache.memory_capacity = 0;
  cfg.cache.disk_dir = dir;
  {
    Service svc(cfg);
    const Request req = analyze(tiny_model(2, 10, 10));
    EXPECT_FALSE(svc.handle(req).cached);
    for (int i = 0; i < 2; ++i) EXPECT_EQ(svc.handle(req).cache_tier, "disk");
    const auto s = stats_of(svc);
    EXPECT_EQ(stat(s, "cache", "hits_disk"), 2);
    EXPECT_EQ(stat(s, "cache", "front_end_skips"), 0);
  }
  std::filesystem::remove_all(dir);
}

TEST(Service, DiskTierSurvivesRestart) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  std::string cold_json, fingerprint;
  {
    Service first(cfg);
    const Response cold = first.handle(analyze(tiny_model(2, 10, 10)));
    ASSERT_TRUE(cold.ok);
    EXPECT_FALSE(cold.cached);
    cold_json = cold.result_json;
    fingerprint = cold.fingerprint;
  }  // "daemon restart"

  Service second(cfg);
  const Response warm = second.handle(analyze(tiny_model(2, 10, 10)));
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.cache_tier, "disk");
  EXPECT_EQ(warm.fingerprint, fingerprint);
  EXPECT_EQ(warm.result_json, cold_json);  // byte-identical across restarts
  const auto s = stats_of(second);
  EXPECT_EQ(stat(s, "analyses_run"), 0);
  EXPECT_EQ(stat(s, "cache", "hits_disk"), 1);

  // A disk hit is promoted into the memory tier.
  EXPECT_EQ(second.handle(analyze(tiny_model(2, 10, 10))).cache_tier,
            "memory");

  std::filesystem::remove_all(dir);
}

TEST(Service, DiskEntryNameIsPinned) {
  // The disk entry file name is <fingerprint>-<options hash>.json. Daemons
  // of every version share one --cache-dir, so the hash of the default
  // options must not drift: this literal was recorded from the hand-written
  // options-v4 hash that the option table replaced.
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  {
    Service svc(cfg);
    Request req = analyze(tiny_model(2, 10, 10));
    req.options = {};
    ASSERT_TRUE(svc.handle(req).ok);
  }
  std::vector<std::string> entries;
  for (const auto& ent : std::filesystem::directory_iterator(dir))
    if (ent.path().extension() == ".json")
      entries.push_back(ent.path().filename().string());
  EXPECT_EQ(entries, std::vector<std::string>{
                         "c836a3ecd06f12cf39940598798b1249-8de79bd4b9ff2356.json"});
  std::filesystem::remove_all(dir);
}

TEST(Service, RetiredNoReductionOptionKeepsTheDefaultDiskEntry) {
  // "no_reduction" is no longer an option, but older clients still send
  // it. Their request must parse, be analyzed, and land on the disk entry
  // the default request writes: the cache dir outlives daemon versions.
  const auto disk_entries = [](const std::string& line) {
    char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    ServiceConfig cfg;
    cfg.cache.disk_dir = dir;
    {
      std::string err;
      const auto req = server::parse_request(line, err);
      EXPECT_TRUE(req.has_value()) << err;
      if (req) {
        Service svc(cfg);
        EXPECT_TRUE(svc.handle(*req).ok);
      }
    }
    std::vector<std::string> entries;
    for (const auto& ent : std::filesystem::directory_iterator(dir))
      if (ent.path().extension() == ".json")
        entries.push_back(ent.path().filename().string());
    std::filesystem::remove_all(dir);
    return entries;
  };

  // Request lines written by hand: the old client sends only the retired
  // key, the default request no options at all.
  const auto request_line = [](bool old_client) {
    util::JsonWriter w;
    w.begin_object();
    w.key("v").value(server::kProtocolVersion);
    w.key("op").value("analyze");
    w.key("model").value(tiny_model(2, 10, 10));
    w.key("root").value("Root.impl");
    if (old_client)
      w.key("options").begin_object().key("no_reduction").value(true)
          .end_object();
    w.end_object();
    return std::move(w).str();
  };
  const std::string plain = request_line(false);
  const std::string old_client = request_line(true);

  const std::vector<std::string> want = disk_entries(plain);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(disk_entries(old_client), want);
}

TEST(Service, StaleTmpFilesAreSweptOnConstruction) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  // A guaranteed-dead pid: fork a child that exits immediately and reap it.
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(dead, &wstatus, 0), dead);
  const std::string dead_pid = std::to_string(dead);

  // Leftovers of a writer that died between the tmp write and the rename —
  // one per cache tier — plus a legitimate final file that must survive,
  // plus a fresh tmp file owned by THIS (live) process: a sibling daemon
  // mid-write, which the sweep must leave alone.
  std::ofstream(dir + "/deadbeef.json.tmp." + dead_pid) << "{\"torn\":";
  std::ofstream(dir + "/deadbeef.ckpt.tmp." + dead_pid) << "partial";
  std::ofstream(dir + "/keepme.json") << "{\"outcome\": \"schedulable\"}";
  const std::string inflight =
      dir + "/inflight.json.tmp." + std::to_string(::getpid());
  std::ofstream(inflight) << "{\"mid\":";

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  Service svc(cfg);

  EXPECT_FALSE(
      std::filesystem::exists(dir + "/deadbeef.json.tmp." + dead_pid));
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/deadbeef.ckpt.tmp." + dead_pid));
  EXPECT_TRUE(std::filesystem::exists(dir + "/keepme.json"));
  EXPECT_TRUE(std::filesystem::exists(inflight));  // live owner, in grace

  std::filesystem::remove_all(dir);
}

TEST(Service, CorruptDiskEntriesAreQuarantinedOnLoad) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  std::string entry_path;
  {
    Service first(cfg);
    ASSERT_FALSE(first.handle(analyze(tiny_model(2, 10, 10))).cached);
    for (const auto& ent : std::filesystem::directory_iterator(dir))
      if (ent.path().extension() == ".json") entry_path = ent.path();
    ASSERT_FALSE(entry_path.empty());
  }
  // Corrupt the stored verdict (torn write, disk damage, foreign bytes).
  std::ofstream(entry_path, std::ios::trunc) << "{\"outcome\": \"sched";

  Service second(cfg);
  const Response resp = second.handle(analyze(tiny_model(2, 10, 10)));
  ASSERT_TRUE(resp.ok);
  // Exactly one miss: the corrupt file was rejected, deleted, and the
  // fresh run re-stored a good copy.
  EXPECT_FALSE(resp.cached);
  const auto s = stats_of(second);
  EXPECT_EQ(stat(s, "cache", "corrupt_evictions"), 1);
  EXPECT_EQ(stat(s, "cache", "misses"), 1);
  EXPECT_EQ(stat(s, "cache", "stores"), 1);
  // Self-healed: the rewritten entry parses and serves.
  Service third(cfg);
  EXPECT_TRUE(third.handle(analyze(tiny_model(2, 10, 10))).cached);
  EXPECT_EQ(stat(stats_of(third), "cache", "corrupt_evictions"), 0);

  std::filesystem::remove_all(dir);
}

// --- warm re-exploration (checkpoint tier) ------------------------------

/// tiny_model(2, 10, 10) explores 13 states cold; a 5-state budget
/// truncates it mid-space.
Request bounded(const std::string& model, std::uint64_t max_states) {
  Request req = analyze(model);
  req.options.max_states = max_states;
  return req;
}

TEST(Service, BudgetBoundRunStoresACheckpointAndResumeFinishes) {
  Service svc;
  const std::string model = tiny_model(2, 10, 10);

  const Response bound = svc.handle(bounded(model, 5));
  ASSERT_TRUE(bound.ok);
  EXPECT_EQ(bound.outcome, core::Outcome::Inconclusive);
  EXPECT_TRUE(bound.checkpoint_captured);
  EXPECT_FALSE(bound.resumed);
  {
    const auto s = stats_of(svc);
    EXPECT_EQ(stat(s, "checkpoints", "stores"), 1);
    EXPECT_EQ(stat(s, "checkpoints", "entries"), 1);
  }

  Request again = analyze(model);
  again.resume = true;
  const Response warm = svc.handle(again);
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.outcome, core::Outcome::Schedulable);
  EXPECT_TRUE(warm.resumed);
  EXPECT_GT(warm.resumed_depth, 0u);

  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "checkpoints", "hits"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "resume_failures"), 0);
  // The conclusive verdict superseded the wavefront.
  EXPECT_EQ(stat(s, "checkpoints", "entries"), 0);

  // The resumed verdict is cached like any other conclusive result.
  EXPECT_TRUE(svc.handle(analyze(model)).cached);
}

TEST(Service, ResumeWithoutACheckpointRunsColdAndCountsAMiss) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  req.resume = true;
  const Response resp = svc.handle(req);
  ASSERT_TRUE(resp.ok);
  EXPECT_EQ(resp.outcome, core::Outcome::Schedulable);
  EXPECT_FALSE(resp.resumed);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "checkpoints", "misses"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "hits"), 0);
}

TEST(Service, NoCheckpointRequestSkipsTheCapture) {
  Service svc;
  const std::string model = tiny_model(2, 10, 10);
  Request req = bounded(model, 5);
  req.no_checkpoint = true;
  EXPECT_EQ(svc.handle(req).outcome, core::Outcome::Inconclusive);
  EXPECT_FALSE(svc.handle(req).checkpoint_captured);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "checkpoints", "stores"), 0);
  EXPECT_EQ(stat(s, "checkpoints", "entries"), 0);
}

TEST(Service, CheckpointsDisabledServiceWideNeverStore) {
  ServiceConfig cfg;
  cfg.cache.checkpoints = false;
  Service svc(cfg);
  const std::string model = tiny_model(2, 10, 10);
  EXPECT_FALSE(svc.handle(bounded(model, 5)).checkpoint_captured);
  Request again = analyze(model);
  again.resume = true;
  EXPECT_FALSE(svc.handle(again).resumed);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "checkpoints", "stores"), 0);
  EXPECT_EQ(stat(s, "checkpoints", "hits"), 0);
}

TEST(Service, CheckpointsSurviveADaemonRestart) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  const std::string model = tiny_model(2, 10, 10);
  {
    Service first(cfg);
    ASSERT_TRUE(first.handle(bounded(model, 5)).checkpoint_captured);
  }  // "daemon restart"

  Service second(cfg);
  Request again = analyze(model);
  again.resume = true;
  const Response warm = second.handle(again);
  ASSERT_TRUE(warm.ok);
  EXPECT_TRUE(warm.resumed);
  EXPECT_EQ(warm.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(stat(stats_of(second), "checkpoints", "hits"), 1);

  std::filesystem::remove_all(dir);
}

TEST(Service, CorruptCheckpointOnDiskFallsBackColdAndIsErased) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  const std::string model = tiny_model(2, 10, 10);
  std::string ckpt_path;
  {
    Service first(cfg);
    ASSERT_TRUE(first.handle(bounded(model, 5)).checkpoint_captured);
    for (const auto& ent : std::filesystem::directory_iterator(dir))
      if (ent.path().extension() == ".ckpt") ckpt_path = ent.path();
    ASSERT_FALSE(ckpt_path.empty());
  }
  std::ofstream(ckpt_path, std::ios::trunc) << "garbage, not a checkpoint";

  Service second(cfg);
  Request again = analyze(model);
  again.resume = true;
  const Response resp = second.handle(again);
  ASSERT_TRUE(resp.ok);
  // The store's digest check quarantined the blob at lookup — the corrupt
  // bytes were never served; the run fell back cold and still reached the
  // verdict.
  EXPECT_FALSE(resp.resumed);
  EXPECT_EQ(resp.outcome, core::Outcome::Schedulable);
  const auto s = stats_of(second);
  EXPECT_EQ(stat(s, "checkpoints", "hits"), 0);
  EXPECT_EQ(stat(s, "checkpoints", "misses"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "corrupt_evictions"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "resume_failures"), 0);
  EXPECT_EQ(stat(s, "checkpoints", "entries"), 0);  // quarantined == erased
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));

  std::filesystem::remove_all(dir);
}

// A sealed checkpoint under the right key but from another translation (a
// binary whose translator differs wrote it) is refused and erased, never
// resumed against the request's model.
TEST(Service, CheckpointFromAnotherTranslationIsRefusedAndErased) {
  const auto only_ckpt = [](const std::string& dir) {
    std::string path;
    for (const auto& ent : std::filesystem::directory_iterator(dir))
      if (ent.path().extension() == ".ckpt") path = ent.path();
    return path;
  };
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  char other_tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(other_tmpl), nullptr);
  const std::string other_dir = other_tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  ServiceConfig other_cfg;
  other_cfg.cache.disk_dir = other_dir;
  const std::string model = tiny_model(2, 10, 10);
  {
    Service first(cfg);
    ASSERT_TRUE(first.handle(bounded(model, 5)).checkpoint_captured);
    Service other(other_cfg);
    ASSERT_TRUE(other.handle(bounded(tiny_model(2, 20, 20), 5))
                    .checkpoint_captured);
  }
  const std::string ckpt_path = only_ckpt(dir);
  ASSERT_FALSE(ckpt_path.empty());
  std::filesystem::copy_file(
      only_ckpt(other_dir), ckpt_path,
      std::filesystem::copy_options::overwrite_existing);

  Service second(cfg);
  Request again = analyze(model);
  again.resume = true;
  const Response resp = second.handle(again);
  ASSERT_TRUE(resp.ok);
  EXPECT_FALSE(resp.resumed);
  EXPECT_EQ(resp.outcome, core::Outcome::Schedulable);
  const auto s = stats_of(second);
  EXPECT_EQ(stat(s, "checkpoints", "hits"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "resume_failures"), 1);
  EXPECT_EQ(stat(s, "checkpoints", "entries"), 0);
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));

  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(other_dir);
}

TEST(Service, CheckpointDiskCapEvictsOldestFirst) {
  char tmpl[] = "/tmp/aadlsched_cache_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  ServiceConfig cfg;
  cfg.cache.disk_dir = dir;
  cfg.cache.checkpoint_disk_cap = 2;
  Service svc(cfg);
  // Three distinct models, three budget-bound runs: the cap keeps two.
  for (int period : {10, 20, 40})
    ASSERT_TRUE(
        svc.handle(bounded(tiny_model(2, period, period), 5))
            .checkpoint_captured);
  std::size_t ckpt_files = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir))
    if (ent.path().extension() == ".ckpt") ++ckpt_files;
  EXPECT_EQ(ckpt_files, 2u);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "checkpoints", "stores"), 3);
  EXPECT_EQ(stat(s, "checkpoints", "entries"), 2);
  EXPECT_GE(stat(s, "checkpoints", "evictions"), 1);

  std::filesystem::remove_all(dir);
}

TEST(Service, IdenticalInFlightRequestsCoalesce) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Service svc(cfg);

  // Occupy the single slot with a big (bounded) storm run, then send the
  // same tiny model from two more threads. Whatever the timing, the tiny
  // exploration must run exactly once: the duplicate either coalesces onto
  // the queued or running job or hits the cache the first run stored.
  Request blocker = analyze(storm_text(), "", "Storm.impl");
  blocker.options.max_states = 20'000;
  Response r0, r1, r2;
  std::thread t0([&] { r0 = svc.handle(blocker); });
  // Let the blocker take the slot first (it is free, so it takes it at
  // once); the test holds either way.
  for (int i = 0; i < 200 && stat(stats_of(svc), "in_flight") == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::thread t1([&] { r1 = svc.handle(analyze(tiny_model(2, 10, 10), "a")); });
  std::thread t2([&] { r2 = svc.handle(analyze(tiny_model(2, 10, 10), "b")); });
  t0.join();
  t1.join();
  t2.join();

  ASSERT_TRUE(r0.ok && r1.ok && r2.ok);
  EXPECT_EQ(r1.id, "a");
  EXPECT_EQ(r2.id, "b");
  EXPECT_EQ(r1.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(r1.result_json, r2.result_json);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), 2);  // storm + ONE tiny run
  EXPECT_EQ(stat(s, "coalesced") + stat(s, "cache", "hits_memory"), 1);
}

/// storm.aadl with Worker_A's deadline moved: a different fingerprint per
/// `deadline_ms`, and an exploration far beyond any small state budget.
std::string storm_variant(int deadline_ms) {
  std::string text = storm_text();
  const std::string from = "Deadline => 14 ms;";
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos)
    text.replace(at, from.size(),
                 "Deadline => " + std::to_string(deadline_ms) + " ms;");
  return text;
}

TEST(Service, SlotsBoundConcurrentAnalyses) {
  // Six callers, two slots, six distinct models that each stop on their
  // state budget: every caller runs its own analysis, never more than two
  // at once.
  ServiceConfig cfg;
  cfg.workers = 2;
  Service svc(cfg);
  constexpr int kCallers = 6;
  std::atomic<int> returned{0};
  std::atomic<std::int64_t> max_in_flight{0};
  std::thread poller([&] {
    while (returned.load() < kCallers) {
      const std::int64_t n = stat(stats_of(svc), "in_flight");
      std::int64_t seen = max_in_flight.load();
      while (n > seen && !max_in_flight.compare_exchange_weak(seen, n)) {
      }
      std::this_thread::yield();
    }
  });
  std::vector<Response> answers(kCallers);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i)
    callers.emplace_back([&, i] {
      Request req = analyze(storm_variant(20 + i), std::to_string(i),
                            "Storm.impl");
      req.options.max_states = 3'000;
      answers[i] = svc.handle(req);
      returned.fetch_add(1);
    });
  for (auto& c : callers) c.join();
  poller.join();

  for (int i = 0; i < kCallers; ++i) {
    ASSERT_TRUE(answers[i].ok) << answers[i].error;
    EXPECT_EQ(answers[i].id, std::to_string(i));
    EXPECT_EQ(answers[i].outcome, core::Outcome::Inconclusive);
    EXPECT_FALSE(answers[i].cached);
  }
  EXPECT_LE(max_in_flight.load(), 2);
  EXPECT_GE(max_in_flight.load(), 1);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "analyses_run"), kCallers);
  EXPECT_EQ(stat(s, "in_flight"), 0);
  EXPECT_EQ(stat(s, "queue_depth"), 0);
}

TEST(Service, ShutdownLetsQueuedCallersRun) {
  // One slot, held by a storm run on a deadline; two callers queue behind
  // it. shutdown() refuses new work but must not strand the queued: both
  // get their analysis, not a refusal.
  ServiceConfig cfg;
  cfg.workers = 1;
  Service svc(cfg);
  Request blocker = analyze(storm_text(), "blocker", "Storm.impl");
  blocker.options.deadline_ms = 500;
  std::thread holder([&] { svc.handle(blocker); });
  for (int i = 0; i < 2'000 && stat(stats_of(svc), "in_flight") == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  Response a, b;
  std::thread ta([&] { a = svc.handle(analyze(tiny_model(2, 10, 10), "a")); });
  std::thread tb([&] { b = svc.handle(analyze(tiny_model(3, 20, 20), "b")); });
  for (int i = 0; i < 2'000 && stat(stats_of(svc), "queue_depth") < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(stat(stats_of(svc), "queue_depth"), 2);
  svc.shutdown();
  const Response refused = svc.handle(analyze(tiny_model(4, 40, 40), "c"));
  EXPECT_FALSE(refused.ok);
  holder.join();
  ta.join();
  tb.join();

  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  EXPECT_EQ(a.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(b.outcome, core::Outcome::Schedulable);
  EXPECT_EQ(stat(stats_of(svc), "analyses_run"), 3);
}

// --- control ops and the wire loop --------------------------------------

TEST(Service, PingStatsShutdownAnswerInline) {
  Service svc;
  Request ping;
  ping.op = Op::Ping;
  ping.id = "p";
  const Response pr = svc.handle(ping);
  EXPECT_TRUE(pr.ok);
  EXPECT_EQ(pr.id, "p");

  Request stats;
  stats.op = Op::Stats;
  const Response sr = svc.handle(stats);
  EXPECT_TRUE(sr.ok);
  EXPECT_TRUE(util::parse_json(sr.stats_json).has_value());

  Request down;
  down.op = Op::Shutdown;
  EXPECT_TRUE(svc.handle(down).ok);
  EXPECT_TRUE(svc.shutting_down());
  // Analyze after shutdown is refused, not hung.
  const Response refused = svc.handle(analyze(tiny_model(2, 10, 10)));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("shutting down"), std::string::npos);
}

TEST(Service, HandleLineRoundTrip) {
  Service svc;
  const std::string line = server::render_request(analyze(tiny_model(2, 10, 10), "w1"));
  const std::string out = svc.handle_line(line);
  std::string err;
  const auto resp = server::parse_response(out, err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(resp->ok);
  EXPECT_EQ(resp->id, "w1");
  EXPECT_EQ(resp->outcome, core::Outcome::Schedulable);
  // The embedded result object came through byte-verbatim.
  EXPECT_EQ(resp->result_json, svc.handle(analyze(tiny_model(2, 10, 10))).result_json);
}

TEST(Service, MalformedLineIsAProtocolError) {
  Service svc;
  const std::string out = svc.handle_line("{not json");
  std::string err;
  const auto resp = server::parse_response(out, err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->ok);
  EXPECT_FALSE(resp->error.empty());
  EXPECT_EQ(stat(stats_of(svc), "protocol_errors"), 1);
  // The service survives and still serves.
  EXPECT_TRUE(svc.handle(analyze(tiny_model(2, 10, 10))).ok);
}

TEST(Service, RetiredWorkersOptionKeepsTheKeyAndTheBytes) {
  // Older clients still send options.workers; it selects nothing any more
  // and must neither split the cache key nor change the result.
  Service svc;
  const std::string plain =
      server::render_request(analyze(tiny_model(2, 10, 10), "w"));
  std::string with_workers = plain;
  const std::string key = "\"options\": {";
  const auto pos = with_workers.find(key);
  ASSERT_NE(pos, std::string::npos);
  with_workers.insert(pos + key.size(), "\"workers\": 4, ");

  std::string err;
  const auto cold = server::parse_response(svc.handle_line(plain), err);
  ASSERT_TRUE(cold.has_value()) << err;
  ASSERT_TRUE(cold->ok) << cold->error;
  EXPECT_FALSE(cold->cached);
  const auto again =
      server::parse_response(svc.handle_line(with_workers), err);
  ASSERT_TRUE(again.has_value()) << err;
  ASSERT_TRUE(again->ok) << again->error;
  EXPECT_TRUE(again->cached);  // same cache key: a memory hit
  EXPECT_EQ(again->result_json, cold->result_json);
  EXPECT_EQ(stat(stats_of(svc), "cache", "entries"), 1);
}

TEST(Service, OversizedRequestLineIsRefusedOverTcp) {
  Service svc;
  server::TcpServer tcp(svc, server::TcpConfig{});
  std::string err;
  ASSERT_TRUE(tcp.start(err)) << err;

  // A raw connection streams one line past the cap, without a newline.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tcp.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string chunk(1 << 16, 'x');
  std::size_t sent = 0;
  while (sent <= server::kMaxLineBytes) {
    const ssize_t n = ::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    if (n <= 0) break;  // the server may hang up before the last chunk
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
    reply.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  const auto nl = reply.find('\n');
  ASSERT_NE(nl, std::string::npos) << "no response before the close";
  const auto resp = server::parse_response(reply.substr(0, nl), err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_FALSE(resp->ok);
  EXPECT_NE(resp->error.find("exceeds 16 MiB"), std::string::npos)
      << resp->error;

  // The daemon keeps serving new connections.
  server::Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", tcp.port(), err)) << err;
  Request ping;
  ping.op = Op::Ping;
  std::string line;
  ASSERT_TRUE(client.roundtrip(server::render_request(ping), line, err))
      << err;
  const auto pong = server::parse_response(line, err);
  ASSERT_TRUE(pong.has_value()) << err;
  EXPECT_TRUE(pong->ok);
  client.close();
  tcp.stop();
}

// --- line framing and connection threads (tcp.hpp) ----------------------

/// A raw blocking loopback socket to `port`, with Nagle off so each send
/// leaves as its own segment; -1 on failure.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Sends `bytes` with one send call per `piece` bytes.
bool send_in_pieces(int fd, std::string_view bytes, std::size_t piece) {
  while (!bytes.empty()) {
    const std::string_view part = bytes.substr(0, piece);
    std::size_t sent = 0;
    while (sent < part.size()) {
      const ssize_t n = ::send(fd, part.data() + sent, part.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    bytes.remove_prefix(part.size());
  }
  return true;
}

/// Everything the peer sends until it closes the connection.
std::string read_to_eof(int fd) {
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  return out;
}

TEST(Service, LineFramingSurvivesAnySegmentationOverTcp) {
  Service svc;
  server::TcpServer tcp(svc, server::TcpConfig{});
  std::string err;
  ASSERT_TRUE(tcp.start(err)) << err;

  const std::string small =
      server::render_request(analyze(tiny_model(2, 10, 10), "small"));
  // A comment pushes this line past one 64 KiB read.
  const std::string big = server::render_request(analyze(
      tiny_model(2, 10, 10) + "-- " + std::string(100'000, 'x') + "\n",
      "big"));
  ASSERT_GT(big.size(), std::size_t{1} << 16);
  // Answered once in-process first, so every answer below is a memory hit
  // with handle_line's bytes (up to served_ms).
  svc.handle_line(small);
  svc.handle_line(big);

  struct Case {
    const char* name;
    std::string bytes;
    std::size_t piece;
    std::vector<const std::string*> requests;
  };
  const Case cases[] = {
      {"1-byte pieces", small + "\n", 1, {&small}},
      {"7-byte pieces", small + "\n", 7, {&small}},
      {"pieces straddling the 64 KiB read", big + "\n", 40'000, {&big}},
      {"two requests in one write", small + "\n" + big + "\n",
       small.size() + big.size() + 2, {&small, &big}},
  };
  for (const Case& c : cases) {
    const int fd = connect_raw(tcp.port());
    ASSERT_GE(fd, 0) << c.name;
    ASSERT_TRUE(send_in_pieces(fd, c.bytes, c.piece)) << c.name;
    ::shutdown(fd, SHUT_WR);  // the server answers, then sees EOF
    const std::string received = read_to_eof(fd);
    ::close(fd);
    std::string_view reply = received;
    for (const std::string* request : c.requests) {
      const auto nl = reply.find('\n');
      ASSERT_NE(nl, std::string_view::npos) << c.name << ": response missing";
      EXPECT_EQ(without_served_ms(std::string(reply.substr(0, nl))),
                without_served_ms(svc.handle_line(*request)))
          << c.name;
      reply.remove_prefix(nl + 1);
    }
    EXPECT_TRUE(reply.empty()) << c.name << ": extra bytes " << reply;
  }
  tcp.stop();
}

/// This process's VmSize in kB (/proc/self/status), or -1.
long vm_size_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  return -1;
}

TEST(Service, FinishedConnectionThreadsAreJoined) {
  // One connection per request is how `aadlsched --connect` talks to the
  // daemon. A finished connection thread left unjoined keeps its stack
  // mapped (8 MB each by default), so 200 of them would add ~1.7 GB.
  Service svc;
  server::TcpServer tcp(svc, server::TcpConfig{});
  std::string err;
  ASSERT_TRUE(tcp.start(err)) << err;
  Request ping;
  ping.op = Op::Ping;
  const std::string line = server::render_request(ping);
  std::string response;
  const auto ping_over = [&](server::Client& client) {
    return client.connect("127.0.0.1", tcp.port(), err) &&
           client.roundtrip(line, response, err);
  };
  {
    // Eight connections at once first. glibc gives a thread that allocates
    // while every free arena is taken a new 64 MB one, and keeps it for
    // reuse; two sequential connections can briefly overlap, so without
    // these spares one unlucky overlap would read as a leak.
    server::Client warm[8];
    for (server::Client& client : warm) ASSERT_TRUE(ping_over(client)) << err;
  }
  const auto one_connection = [&] {
    server::Client client;
    return ping_over(client);
  };
  const long before = vm_size_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(one_connection()) << i << err;
  const long growth_kb = vm_size_kb() - before;
  EXPECT_LT(growth_kb, 64 * 1024) << "VmSize grew " << growth_kb << " kB";
  tcp.stop();
}

// --- symbolic engine at the service layer (DESIGN.md §16) ---------------

TEST(Service, EngineSplitsTheCacheKey) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  const Response en = svc.handle(req);
  ASSERT_TRUE(en.ok) << en.error;
  EXPECT_NE(en.result_json.find("\"engine\": \"enumerative\""),
            std::string::npos);

  // Same model, symbolic engine: a distinct cache entry, same verdict.
  req.options.engine = core::Engine::Symbolic;
  const Response sy = svc.handle(req);
  ASSERT_TRUE(sy.ok) << sy.error;
  EXPECT_FALSE(sy.cached);
  EXPECT_EQ(sy.outcome, core::Outcome::Schedulable);
  EXPECT_NE(sy.result_json.find("\"engine\": \"symbolic\""),
            std::string::npos);
  EXPECT_EQ(sy.fingerprint, en.fingerprint);  // model text is identical
  EXPECT_EQ(stat(stats_of(svc), "cache", "entries"), 2);

  // And the symbolic entry serves warm afterwards, bytes verbatim.
  const Response warm = svc.handle(req);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.result_json, sy.result_json);
}

TEST(Service, SymbolicRunsAreReportedInStats) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10));
  req.options.engine = core::Engine::Symbolic;
  ASSERT_TRUE(svc.handle(req).ok);
  const auto s = stats_of(svc);
  EXPECT_EQ(stat(s, "symbolic", "runs"), 1);
  EXPECT_GT(stat(s, "symbolic", "zones"), 0);
  EXPECT_EQ(stat(s, "symbolic", "max_dbm_dimension"), 2);  // 1 clock + ref

  // A cache hit is not a run: the counters stay put.
  ASSERT_TRUE(svc.handle(req).cached);
  EXPECT_EQ(stat(stats_of(svc), "symbolic", "runs"), 1);
}

TEST(Service, ForceEngineRewritesTheRequestBeforeTheCacheKey) {
  ServiceConfig cfg;
  cfg.force_engine = core::Engine::Symbolic;
  Service svc(cfg);

  // One request asks for nothing, the other explicitly for enumerative;
  // the daemon-level override rewrites both to symbolic BEFORE key
  // computation, so the second is a warm hit on the first's entry.
  Request plain = analyze(tiny_model(2, 10, 10));
  const Response first = svc.handle(plain);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_NE(first.result_json.find("\"engine\": \"symbolic\""),
            std::string::npos);

  Request explicit_enum = analyze(tiny_model(2, 10, 10));
  explicit_enum.options.engine = core::Engine::Enumerative;
  const Response second = svc.handle(explicit_enum);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.result_json, first.result_json);
  EXPECT_EQ(stat(stats_of(svc), "cache", "entries"), 1);
}

TEST(Service, EngineFieldRoundTripsThroughTheProtocol) {
  Service svc;
  Request req = analyze(tiny_model(2, 10, 10), "e1");
  req.options.engine = core::Engine::Symbolic;
  const std::string line = server::render_request(req);
  EXPECT_NE(line.find("\"engine\": \"symbolic\""), std::string::npos);

  std::string err;
  const auto parsed = server::parse_request(line, err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->options.engine, core::Engine::Symbolic);

  const std::string out = svc.handle_line(line);
  const auto resp = server::parse_response(out, err);
  ASSERT_TRUE(resp.has_value()) << err;
  EXPECT_TRUE(resp->ok);
  EXPECT_NE(resp->result_json.find("\"engine\": \"symbolic\""),
            std::string::npos);
}

TEST(Service, EveryOptionRoundTripsThroughTheProtocol) {
  // Every row of the options table, set away from its default, survives
  // render_request -> parse_request.
  Request req = analyze(tiny_model(2, 10, 10), "rt");
  const server::RequestOptions defaults;
  for (const server::OptionSpec& spec : server::kOptionTable)
    spec.set(req.options,
             spec.get(defaults) == spec.max ? spec.min : spec.max);

  std::string err;
  const auto parsed = server::parse_request(server::render_request(req), err);
  ASSERT_TRUE(parsed.has_value()) << err;
  for (const server::OptionSpec& spec : server::kOptionTable) {
    EXPECT_NE(spec.get(req.options), spec.get(defaults)) << spec.key;
    EXPECT_EQ(spec.get(parsed->options), spec.get(req.options)) << spec.key;
  }
}

TEST(Service, OutOfRangeOptionsAreProtocolErrors) {
  const std::pair<std::string, std::string> cases[] = {
      {"engine", "\"zonal\""},
      {"max_states", "-5"},
      {"max_states", "0"},
      {"memory_budget_mb", "17592186044416"},  // 2^44 MB wraps to 0 bytes
      {"deadline_ms", "-7"},
      {"quantum_ms", "9300000000000"},  // overflows int64 in nanoseconds
      {"quantum_ns", "-1"},
  };
  Service svc;
  for (const auto& [key, value] : cases) {
    util::JsonWriter w;
    w.begin_object();
    w.key("v").value(1);
    w.key("op").value("analyze");
    w.key("model").value(tiny_model(2, 10, 10));
    w.key("root").value("Root.impl");
    w.key("options").begin_object();
    w.key(key).raw(value);
    w.end_object();
    w.end_object();

    std::string err;
    const auto resp =
        server::parse_response(svc.handle_line(std::move(w).str()), err);
    ASSERT_TRUE(resp.has_value()) << err;
    EXPECT_FALSE(resp->ok) << key << ": " << value;
    EXPECT_NE(resp->error.find("options." + key), std::string::npos)
        << resp->error;
  }
  EXPECT_EQ(stat(stats_of(svc), "protocol_errors"),
            static_cast<std::int64_t>(std::size(cases)));
}

// --- admission policy ---------------------------------------------------

TEST(AdmissionQueue, SmallBurstThenLarge) {
  server::AdmissionQueue q(2);
  // s=small tickets 1,2,4,5,7,8; l=large 3,6
  q.push(1, true);
  q.push(2, true);
  q.push(3, false);
  q.push(4, true);
  q.push(5, true);
  q.push(6, false);
  q.push(7, true);
  q.push(8, true);
  std::vector<std::uint64_t> order;
  while (auto t = q.pop()) order.push_back(*t);
  // Two smalls per large while a large is waiting; pure-small tail is FIFO.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(AdmissionQueue, PureSmallWorkloadNeverStalls) {
  server::AdmissionQueue q(2);
  for (std::uint64_t t = 1; t <= 5; ++t) q.push(t, true);
  for (std::uint64_t t = 1; t <= 5; ++t) EXPECT_EQ(q.pop(), t);
  // The all-small prefix must not have consumed the burst: a large arriving
  // now with fresh smalls still waits at most `burst` of them.
  q.push(10, false);
  q.push(11, true);
  q.push(12, true);
  q.push(13, true);
  EXPECT_EQ(q.pop(), 11u);
  EXPECT_EQ(q.pop(), 12u);
  EXPECT_EQ(q.pop(), 10u);  // burst spent, large admitted
  EXPECT_EQ(q.pop(), 13u);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// --- metrics latency window (bugfix) ------------------------------------

// p50/p95 are computed over only the last kLatencyRing (4096) samples while
// `samples` counts all-time; the snapshot and the stats JSON must say so
// explicitly. Overfill the ring with a slow prefix that the window must
// forget: percentiles reflect only the fast tail, max stays all-time.
TEST(Metrics, LatencyWindowIsExplicitWhenTheRingOverfills) {
  server::Metrics m;
  constexpr std::size_t kRing = 4096;
  constexpr std::size_t kSlowPrefix = 1000;
  for (std::size_t i = 0; i < kSlowPrefix; ++i) m.record_latency_ms(500.0);
  for (std::size_t i = 0; i < kRing; ++i) m.record_latency_ms(1.0);

  const server::StatsSnapshot s = m.snapshot({});
  EXPECT_EQ(s.latency_samples, kSlowPrefix + kRing);  // all-time
  EXPECT_EQ(s.latency_window, kRing);                 // percentile scope
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.0);   // the slow prefix left the window
  EXPECT_DOUBLE_EQ(s.p95_ms, 1.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 500.0);  // max is all-time, not windowed

  const std::string json = s.render_json();
  EXPECT_NE(json.find("\"samples\": 5096"), std::string::npos) << json;
  EXPECT_NE(json.find("\"window\": 4096"), std::string::npos) << json;
}

// Under-filled ring: the window equals the sample count, so percentiles
// and the counter describe the same population.
TEST(Metrics, LatencyWindowEqualsSamplesBeforeOverflow) {
  server::Metrics m;
  for (int i = 0; i < 10; ++i) m.record_latency_ms(2.0);
  const server::StatsSnapshot s = m.snapshot({});
  EXPECT_EQ(s.latency_samples, 10u);
  EXPECT_EQ(s.latency_window, 10u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 2.0);
}

TEST(AdmissionQueue, LargeOnlyIsFifo) {
  server::AdmissionQueue q(4);
  q.push(1, false);
  q.push(2, false);
  EXPECT_EQ(q.pop(), 1u);
  EXPECT_EQ(q.pop(), 2u);
}

// --- concurrent mixed workload (tsan label) -----------------------------

TEST(Service, ConcurrentMixedWorkload) {
  ServiceConfig cfg;
  cfg.workers = 2;
  Service svc(cfg);

  const std::string sched = tiny_model(2, 10, 10);
  const std::string notsched = tiny_model(12, 10, 10);
  const std::string storm = storm_text();

  constexpr int kThreads = 4;
  constexpr int kIters = 6;
  std::atomic<int> wrong{0};
  std::atomic<bool> sampling{true};

  // Stats sampler: every counter is cumulative and must never decrease,
  // whatever the worker threads are doing.
  std::thread sampler([&] {
    std::int64_t last_requests = 0, last_runs = 0, last_hits = 0,
                 last_misses = 0;
    while (sampling.load(std::memory_order_relaxed)) {
      const auto s = stats_of(svc);
      const std::int64_t requests = stat(s, "requests");
      const std::int64_t runs = stat(s, "analyses_run");
      const std::int64_t hits = stat(s, "cache", "hits_memory");
      const std::int64_t misses = stat(s, "cache", "misses");
      if (requests < last_requests || runs < last_runs || hits < last_hits ||
          misses < last_misses)
        ++wrong;
      last_requests = requests;
      last_runs = runs;
      last_hits = hits;
      last_misses = misses;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> lost{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        Request req;
        core::Outcome expect{};
        switch ((t + i) % 4) {
          case 0:
            req = analyze(sched);
            expect = core::Outcome::Schedulable;
            break;
          case 1:
            req = analyze(notsched);
            expect = core::Outcome::NotSchedulable;
            break;
          case 2:
            req = analyze(storm, "", "Storm.impl");
            req.options.max_states = 300;  // tight budget, always truncated
            expect = core::Outcome::Inconclusive;
            break;
          case 3:
            req = analyze("garbage!");
            expect = core::Outcome::Error;
            break;
        }
        req.id = std::to_string(t) + "-" + std::to_string(i);
        const Response resp = svc.handle(req);
        if (!resp.ok || resp.id != req.id) ++lost;
        if (resp.outcome != expect) ++wrong;
        if (resp.result_json.empty()) ++lost;
      }
    });
  }
  for (auto& c : clients) c.join();
  sampling = false;
  sampler.join();

  EXPECT_EQ(lost.load(), 0);
  EXPECT_EQ(wrong.load(), 0);

  const auto s = stats_of(svc);
  constexpr int kTotal = kThreads * kIters;  // 6 per kind
  EXPECT_EQ(stat(s, "analyze_requests"), kTotal);
  EXPECT_EQ(stat(s, "outcomes", "schedulable"), kTotal / 4);
  EXPECT_EQ(stat(s, "outcomes", "not_schedulable"), kTotal / 4);
  EXPECT_EQ(stat(s, "outcomes", "inconclusive"), kTotal / 4);
  EXPECT_EQ(stat(s, "outcomes", "error"), kTotal / 4);
  // Exact conservation law: every non-error analyze request was served by
  // exactly one of a cache hit, a coalesced in-flight run, or its own
  // exploration. No response was lost, none was double-served.
  EXPECT_EQ(stat(s, "cache", "hits_memory") + stat(s, "coalesced") +
                stat(s, "analyses_run"),
            kTotal - kTotal / 4);  // errors never reach the cache or a worker
  EXPECT_EQ(stat(s, "protocol_errors"), 0);
  EXPECT_GT(stat(s, "latency", "samples"), 0);

  // Gauges drain once the queue is empty; give the workers a beat.
  for (int i = 0; i < 200 && (stat(stats_of(svc), "in_flight") != 0 ||
                              stat(stats_of(svc), "queue_depth") != 0);
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto fin = stats_of(svc);
  EXPECT_EQ(stat(fin, "in_flight"), 0);
  EXPECT_EQ(stat(fin, "queue_depth"), 0);
}

TEST(Service, ConcurrentRepeatsAndEditsThroughTheMemo) {
  // Exact repeats, whitespace edits and a second root of one text race
  // through the memo while two memory slots keep evicting both the memo
  // and the results under them.
  struct Variant {
    std::string text, root;
    core::Outcome expect;
    std::string fingerprint;  // from a cold no_cache run
  };
  const std::string two = two_root_model();
  std::vector<Variant> variants = {
      {tiny_model(2, 10, 10), "Root.impl", core::Outcome::Schedulable, ""},
      {tiny_model(2, 10, 10) + "\n\n", "Root.impl",
       core::Outcome::Schedulable, ""},
      {tiny_model(12, 10, 10), "Root.impl", core::Outcome::NotSchedulable, ""},
      {"-- edited\n" + tiny_model(12, 10, 10), "Root.impl",
       core::Outcome::NotSchedulable, ""},
      {two, "Root.impl", core::Outcome::Schedulable, ""},
      {two, "Root.slow", core::Outcome::NotSchedulable, ""},
  };
  {
    Service ref;
    for (Variant& v : variants) {
      Request req = analyze(v.text, "", v.root);
      req.no_cache = true;
      v.fingerprint = ref.handle(req).fingerprint;
    }
  }

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.cache.memory_capacity = 2;
  Service svc(cfg);
  constexpr int kThreads = 4;
  constexpr int kIters = 24;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Variant& v =
            variants[static_cast<std::size_t>(t + i * (t + 1)) % variants.size()];
        const Response resp = svc.handle(analyze(v.text, "", v.root));
        if (!resp.ok || resp.outcome != v.expect ||
            resp.fingerprint != v.fingerprint)
          ++wrong;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(wrong.load(), 0);

  const auto s = stats_of(svc);
  // Every request was served by exactly one of a hit, a coalesced run or
  // its own exploration; memo answers are a subset of the hits.
  const std::int64_t hits =
      stat(s, "cache", "hits_memory") + stat(s, "cache", "hits_disk");
  EXPECT_EQ(hits + stat(s, "coalesced") + stat(s, "analyses_run"),
            kThreads * kIters);
  EXPECT_LE(stat(s, "cache", "front_end_skips"), hits);
}

}  // namespace
