// Service-layer experiment (DESIGN.md §11): what does the result cache buy?
// Serve the example models through an in-process server::Service cold
// (forced exploration) and warm (memory-tier hit) and compare served
// latencies; the acceptance bar is a >= 10x cheaper warm serve. The warm
// DISK path (every load digest-verified, DESIGN.md §15) is benchmarked
// separately with the cache-integrity counters attached. The hit path is
// timed layer by layer on the cruise-control request line: in-process
// (BM_HandleLineHit) and over loopback TCP with the client's decode
// (BM_TcpHitRoundtrip). The table rows land in EXPERIMENTS.md; the BM_
// timings feed BENCH_service.json via tools/run_benches.sh.
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "aadl/fingerprint.hpp"
#include "bench_common.hpp"
#include "server/service.hpp"
#include "server/tcp.hpp"
#include "util/json.hpp"

namespace {

using namespace aadlsched;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

server::Request analyze_request(const std::string& model,
                                const std::string& root, bool no_cache) {
  server::Request req;
  req.op = server::Op::Analyze;
  req.model = model;
  req.root = root;
  req.no_cache = no_cache;
  req.options.run_lint = false;
  return req;
}

double serve_ms(server::Service& svc, const server::Request& req) {
  const auto t0 = std::chrono::steady_clock::now();
  const server::Response resp = svc.handle(req);
  const auto t1 = std::chrono::steady_clock::now();
  if (!resp.ok) std::fprintf(stderr, "serve failed: %s\n", resp.error.c_str());
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct ExampleModel {
  const char* file;
  const char* root;
};

// Conclusive models only: the cache stores conclusive verdicts, and storm
// is budget-bound by design (its warm serve would just re-explore).
constexpr ExampleModel kModels[] = {
    {"cruise_control.aadl", "CruiseControlSystem.impl"},
    {"avionics.aadl", "Avionics.impl"},
};

void print_table() {
  bench::print_header(
      "service cache: cold vs warm served latency",
      "a memory-tier hit serves an already-proved verdict >= 10x faster "
      "than re-exploring");
  std::printf("# %-24s %12s %12s %10s\n", "model", "cold_ms", "warm_ms",
              "speedup");
  for (const ExampleModel& m : kModels) {
    server::Service svc;
    const std::string text =
        slurp(std::string(AADLSCHED_MODELS_DIR) + "/" + m.file);
    const double cold = serve_ms(svc, analyze_request(text, m.root, false));
    // Best warm serve of three: one timing quantum of noise would otherwise
    // dominate a sub-millisecond cache hit.
    double warm = serve_ms(svc, analyze_request(text, m.root, false));
    for (int i = 0; i < 2; ++i)
      warm = std::min(warm,
                      serve_ms(svc, analyze_request(text, m.root, false)));
    std::printf("# %-24s %12.3f %12.3f %9.1fx\n", m.file, cold, warm,
                warm > 0 ? cold / warm : 0.0);
  }
}

const std::string& avionics_text() {
  static const std::string text =
      slurp(std::string(AADLSCHED_MODELS_DIR) + "/avionics.aadl");
  return text;
}

// BM timings use avionics (concludes in a few ms) so the cold benchmark
// stays runnable; the table above covers the expensive cruise model.
void BM_ServeCold(benchmark::State& state) {
  server::Service svc;
  const auto req = analyze_request(avionics_text(), "Avionics.impl", true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.handle(req));
  }
}
BENCHMARK(BM_ServeCold)->Unit(benchmark::kMillisecond);

void BM_ServeCachedMemory(benchmark::State& state) {
  server::Service svc;
  const auto req = analyze_request(avionics_text(), "Avionics.impl", false);
  svc.handle(req);  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.handle(req));
  }
}
BENCHMARK(BM_ServeCachedMemory)->Unit(benchmark::kMicrosecond);

/// A second conclusive model so two keys can alternate through a
/// one-entry memory tier (13 states; the serve cost is all cache path).
std::string tiny_text() {
  return "package Tiny\npublic\n"
         "  processor CPU\n  properties\n"
         "    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;\n  end CPU;\n"
         "  thread T\n  end T;\n"
         "  thread implementation T.impl\n  properties\n"
         "    Dispatch_Protocol => Periodic;\n    Period => 10 ms;\n"
         "    Compute_Execution_Time => 2 ms .. 2 ms;\n"
         "    Deadline => 10 ms;\n  end T.impl;\n"
         "  system App\n  end App;\n"
         "  system implementation App.impl\n  subcomponents\n"
         "    t : thread T.impl;\n  end App.impl;\n"
         "  system Root\n  end Root;\n"
         "  system implementation Root.impl\n  subcomponents\n"
         "    app : system App.impl;\n    cpu : processor CPU;\n"
         "  properties\n"
         "    Actual_Processor_Binding => reference (cpu) applies to app;\n"
         "  end Root.impl;\nend Tiny;\n";
}

// The warm DISK serve path (DESIGN.md §15): a one-entry memory tier and two
// alternating keys force every handle() through a disk load — read, trailing
// digest verification, JSON re-parse, promote. This is the latency a daemon
// restart (or a cohabitant daemon) pays per shared verdict, and the number
// the crash-safety work must not regress. The integrity/GC counters ride
// along in the JSON report so CI archives them with the timings (all must
// stay 0 on a healthy run).
void BM_ServeCachedDisk(benchmark::State& state) {
  char tmpl[] = "/tmp/aadlsched_bench_cache_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    state.SkipWithError("mkdtemp failed");
    return;
  }
  server::ServiceConfig cfg;
  cfg.cache.disk_dir = tmpl;
  cfg.cache.memory_capacity = 1;
  server::Service svc(cfg);
  const auto avionics = analyze_request(avionics_text(), "Avionics.impl",
                                        false);
  const auto tiny = analyze_request(tiny_text(), "Root.impl", false);
  svc.handle(avionics);  // prime both disk entries
  svc.handle(tiny);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.handle(avionics));  // evicts tiny
    benchmark::DoNotOptimize(svc.handle(tiny));      // evicts avionics
  }
  state.SetItemsProcessed(state.iterations() * 2);
  const auto stats = util::parse_json(svc.stats_json());
  const auto counter = [&](const char* obj, const char* key) {
    const util::JsonValue* v = stats ? stats->get(obj) : nullptr;
    if (v) v = v->get(key);
    return benchmark::Counter(v ? static_cast<double>(v->as_int(-1)) : -1);
  };
  state.counters["corrupt_evictions"] = counter("cache", "corrupt_evictions");
  state.counters["disk_store_failures"] =
      counter("cache", "disk_store_failures");
  state.counters["gc_runs"] = counter("gc", "runs");
  state.counters["gc_remove_failures"] = counter("gc", "remove_failures");
  std::filesystem::remove_all(tmpl);
}
BENCHMARK(BM_ServeCachedDisk)->Unit(benchmark::kMicrosecond);

void BM_Fingerprint(benchmark::State& state) {
  util::DiagnosticEngine diags("bench.aadl");
  aadl::Model model;
  aadl::parse_aadl(model, avionics_text(), diags);
  auto inst = aadl::instantiate(model, "Avionics.impl", diags);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aadl::instance_fingerprint(*inst));
  }
}
BENCHMARK(BM_Fingerprint)->Unit(benchmark::kMicrosecond);

/// The cruise-control request line an editor session repeats (the request
/// perfbench's serve_edit sends, at its 5 ms quantum), and a Service that
/// has already answered it once, so every later answer is a memory hit.
struct CruiseHit {
  server::Service svc;
  std::string line;

  CruiseHit() {
    server::Request req;
    req.op = server::Op::Analyze;
    req.id = "e1";
    req.model = slurp(std::string(AADLSCHED_MODELS_DIR) +
                      "/cruise_control.aadl");
    req.root = "CruiseControlSystem.impl";
    req.options.quantum_ns = 5'000'000;
    line = server::render_request(req);
    svc.handle_line(line);  // the cold run that fills the cache
  }
};

/// A repeat decoded, looked up and rendered in-process: the daemon's share
/// of a hit (protocol decode, request digest, memo and memory tier, render).
void BM_HandleLineHit(benchmark::State& state) {
  CruiseHit hit;
  for (auto _ : state) benchmark::DoNotOptimize(hit.svc.handle_line(hit.line));
  // Every timed call should skip the front end through the memo.
  const auto stats = util::parse_json(hit.svc.stats_json());
  const util::JsonValue* cache = stats ? stats->get("cache") : nullptr;
  const util::JsonValue* skips =
      cache ? cache->get("front_end_skips") : nullptr;
  state.counters["front_end_skips"] =
      benchmark::Counter(skips ? static_cast<double>(skips->as_int()) : -1);
}
BENCHMARK(BM_HandleLineHit)->Unit(benchmark::kMicrosecond);

/// The same repeat as `aadlsched --connect` sees it: one Client roundtrip
/// over loopback TCP plus the client's parse_response.
void BM_TcpHitRoundtrip(benchmark::State& state) {
  CruiseHit hit;
  server::TcpServer tcp(hit.svc, server::TcpConfig{});
  server::Client client;
  std::string error;
  if (!tcp.start(error) || !client.connect("127.0.0.1", tcp.port(), error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  std::string response;
  for (auto _ : state) {
    if (!client.roundtrip(hit.line, response, error)) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(server::parse_response(response, error));
  }
  client.close();
  tcp.stop();
}
BENCHMARK(BM_TcpHitRoundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return aadlsched::bench::run_main(argc, argv, print_table);
}
