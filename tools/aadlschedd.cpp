// aadlschedd — the analysis daemon: a long-running server::Service behind a
// TCP socket, turning the paper's interactive OSATE-plugin workflow into a
// cached, concurrently served operation.
//
//   aadlschedd [options]
//
//   --host <addr>            bind address (default 127.0.0.1)
//   --port <n>               TCP port; 0 picks an ephemeral port (default 0)
//   --workers <n>            analyses run at once, each on the connection
//                            thread that asked for it (0 = hardware
//                            concurrency; default 1)
//   --cache-capacity <n>     in-memory result cache entries (default 1024;
//                            0 disables the memory tier)
//   --cache-dir <dir>        on-disk result store; survives restarts — a
//                            new daemon on the same directory serves warm
//                            verdicts without re-exploring
//   --max-deadline-ms <n>    cap on any request's wall-clock budget; also
//                            applied to requests that ask for no limit
//   --max-states <n>         cap on any request's state budget
//   --memory-budget-mb <n>   cap on any request's memory budget
//   --engine <e>             force every request onto one exploration
//                            engine (enumerative | symbolic | auto,
//                            DESIGN.md §16), overriding per-request
//                            options before cache-key computation
//   --cache-disk-cap <mb>    byte budget for --cache-dir artifacts; the
//                            maintenance sweep evicts oldest-atime-first
//                            when over it (default 0 = unlimited)
//   --maintenance-interval-ms <n>
//                            period of the background maintenance sweep
//                            (tmp hygiene + GC; default 30000, 0 disables
//                            the thread — the startup sweep still runs)
//
// Several daemons may share one --cache-dir (DESIGN.md §15): every disk
// artifact is digest-verified on read, maintenance is serialized by an
// advisory directory lock, and cohabitants are discovered via the instance
// registry and reported in `stats` (shared.instances) and at startup.
//
// On startup the daemon prints exactly one line
//   aadlschedd listening on HOST:PORT
// to stdout (scripts parse it to discover an ephemeral port), then serves
// until SIGINT/SIGTERM or a client's {"op": "shutdown"} request. Final
// stats are logged to stderr on exit.
//
// Protocol and result schema: DESIGN.md §11. Exit code: 0 clean shutdown,
// 2 startup/usage error.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include "server/service.hpp"
#include "server/tcp.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace aadlsched;

int usage() {
  std::cerr <<
      "usage: aadlschedd [--host addr] [--port n] [--workers n]\n"
      "                  [--cache-capacity n] [--cache-dir dir]\n"
      "                  [--max-deadline-ms n] [--max-states n]\n"
      "                  [--memory-budget-mb n]\n"
      "                  [--cache-disk-cap mb] [--maintenance-interval-ms n]\n"
      "                  [--engine enumerative|symbolic|auto]\n";
  return 2;
}

using util::parse_option;

std::atomic<bool> g_signalled{false};

void on_signal(int) { g_signalled.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace aadlsched;

  server::ServiceConfig cfg;
  server::TcpConfig tcp;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host" && i + 1 < argc) {
      tcp.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      const auto n = parse_option("--port", argv[++i], 0, 65535);
      if (!n) return usage();
      tcp.port = static_cast<std::uint16_t>(*n);
    } else if (arg == "--workers" && i + 1 < argc) {
      const auto n = parse_option("--workers", argv[++i], 0, 4096);
      if (!n) return usage();
      cfg.workers = static_cast<std::size_t>(*n);
    } else if (arg == "--cache-capacity" && i + 1 < argc) {
      const auto n = parse_option("--cache-capacity", argv[++i], 0,
                                  100'000'000);
      if (!n) return usage();
      cfg.cache.memory_capacity = static_cast<std::size_t>(*n);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cfg.cache.disk_dir = argv[++i];
    } else if (arg == "--max-deadline-ms" && i + 1 < argc) {
      const auto n = parse_option("--max-deadline-ms", argv[++i], 1,
                                  1'000'000'000);
      if (!n) return usage();
      cfg.max_deadline_ms = static_cast<double>(*n);
    } else if (arg == "--max-states" && i + 1 < argc) {
      const auto n = parse_option("--max-states", argv[++i], 1,
                                  std::numeric_limits<std::int64_t>::max());
      if (!n) return usage();
      cfg.max_states_cap = static_cast<std::uint64_t>(*n);
    } else if (arg == "--memory-budget-mb" && i + 1 < argc) {
      const auto n = parse_option("--memory-budget-mb", argv[++i], 1,
                                  1'000'000'000);
      if (!n) return usage();
      cfg.memory_budget_mb_cap = static_cast<std::uint64_t>(*n);
    } else if (arg == "--engine" && i + 1 < argc) {
      server::RequestOptions forced;  // the request flag's values and checks
      if (!server::parse_flag(*server::find_flag(arg), argv[++i], forced))
        return usage();
      cfg.force_engine = forced.engine;
    } else if (arg == "--cache-disk-cap" && i + 1 < argc) {
      const auto n = parse_option("--cache-disk-cap", argv[++i], 0,
                                  1'000'000'000);
      if (!n) return usage();
      cfg.cache_disk_cap_bytes =
          static_cast<std::uint64_t>(*n) * 1024 * 1024;
    } else if (arg == "--maintenance-interval-ms" && i + 1 < argc) {
      const auto n = parse_option("--maintenance-interval-ms", argv[++i], 0,
                                  1'000'000'000);
      if (!n) return usage();
      cfg.maintenance_interval_ms = static_cast<double>(*n);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    }
  }

  server::Service service(cfg);
  server::TcpServer tcp_server(service, tcp);
  std::string error;
  if (!tcp_server.start(error)) {
    std::cerr << "aadlschedd: " << error << "\n";
    return 2;
  }

  // Exactly one discovery line on stdout, flushed, for scripts.
  std::printf("aadlschedd listening on %s:%u\n", tcp.host.c_str(),
              static_cast<unsigned>(tcp_server.port()));
  std::fflush(stdout);

  // Cohabitant report (stderr, so the stdout contract above holds): other
  // live daemons already registered on this cache directory.
  if (auto* janitor = service.janitor()) {
    for (const auto& inst : janitor->live_instances()) {
      if (inst.pid == ::getpid()) continue;
      std::fprintf(stderr,
                   "aadlschedd: sharing cache dir with daemon pid %ld "
                   "(started %s)\n",
                   static_cast<long>(inst.pid), inst.started.c_str());
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Park until a client shutdown request or a signal. The signal handler
  // can only set a flag, so poll it at a human-imperceptible interval.
  while (!g_signalled.load(std::memory_order_relaxed) &&
         !service.shutting_down()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "aadlschedd: shutting down\n");
  const std::string final_stats = service.stats_json();
  tcp_server.stop();
  service.shutdown();
  std::fprintf(stderr, "aadlschedd: final stats %s\n", final_stats.c_str());
  return 0;
}
