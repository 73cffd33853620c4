// The socket skin over server::Service: a POSIX TCP listener speaking the
// newline-delimited JSON protocol, plus the matching blocking Client used
// by `aadlsched --connect`.
//
// Deliberately boring networking: one accept thread, one thread per
// connection, blocking reads. Concurrency and scheduling live in the
// Service (its admission queue and worker pool); the TCP layer only has to
// keep slow readers from blocking each other, which per-connection threads
// do at the traffic levels an analysis daemon sees (requests carry whole
// AADL models — this is not a 100k-connections workload).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/service.hpp"

namespace aadlsched::server {

/// Longest protocol line either side accepts (newline excluded). A request
/// over it gets an ok=false response and the connection is closed, so one
/// client cannot grow daemon memory without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{16} << 20;

struct TcpConfig {
  std::string host = "127.0.0.1";  // bind address (loopback by default)
  std::uint16_t port = 0;          // 0 = ephemeral; see TcpServer::port()
};

class TcpServer {
 public:
  TcpServer(Service& service, TcpConfig cfg);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + spawn the accept thread. False (with a reason) on
  /// bind failure — the daemon reports and exits 2.
  bool start(std::string& error);

  /// Actual bound port (resolves port 0 after start()).
  std::uint16_t port() const { return port_; }

  /// Close the listener and every live connection, join all threads.
  /// Idempotent. A client's shutdown request only flips the Service
  /// (Service::shutting_down()); the daemon polls that and then calls this.
  void stop();

 private:
  void accept_loop();
  void connection_loop(int fd);

  Service& service_;
  TcpConfig cfg_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  std::thread accept_thread_;
};

/// Blocking line-oriented client for the --connect mode and the smoke
/// tests. Optional timeouts keep a wedged daemon (or a black-holed route)
/// from hanging the CLI forever: connect uses a non-blocking connect +
/// poll, I/O uses SO_RCVTIMEO/SO_SNDTIMEO. Zero (the default) means the
/// OS-default blocking behaviour, so existing callers are unchanged.
class Client {
 public:
  struct Timeouts {
    double connect_ms = 0;  // 0 = blocking connect (OS default)
    double io_ms = 0;       // 0 = no send/recv deadline
  };

  ~Client();

  void set_timeouts(Timeouts t) { timeouts_ = t; }

  bool connect(const std::string& host, std::uint16_t port,
               std::string& error);
  /// Send one request line (newline appended) and read one response line.
  bool roundtrip(const std::string& request_line, std::string& response_line,
                 std::string& error);
  void close();

 private:
  int fd_ = -1;
  std::string rx_buffer_;
  Timeouts timeouts_;
};

/// Parse "HOST:PORT" (host may be empty → 127.0.0.1).
bool parse_endpoint(std::string_view spec, std::string& host,
                    std::uint16_t& port);

}  // namespace aadlsched::server
