#include "server/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>

#include "server/tcp.hpp"

namespace aadlsched::server {

std::optional<Response> request_with_retry(const std::string& host,
                                           std::uint16_t port,
                                           const Request& req,
                                           const RetryPolicy& policy,
                                           std::string& error,
                                           const RetryObserver& on_retry) {
  const std::string request_line = render_request(req);

  // Jitter decorrelates a herd of clients retrying against one restarting
  // daemon; pid ^ clock keeps forked batch runners apart.
  std::mt19937 rng(static_cast<std::uint32_t>(::getpid()) ^
                   static_cast<std::uint32_t>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch()
                           .count()));
  for (unsigned attempt = 0; attempt <= policy.retries; ++attempt) {
    if (attempt > 0) {
      double base_ms = 100.0 * static_cast<double>(1u << (attempt - 1));
      base_ms = std::min(base_ms, 2000.0);
      std::uniform_real_distribution<double> jitter(0.0, base_ms * 0.5);
      const double delay_ms = base_ms + jitter(rng);
      if (on_retry) on_retry(attempt, policy.retries, delay_ms, error);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    Client client;
    client.set_timeouts({policy.connect_timeout_ms, policy.io_timeout_ms});
    if (!client.connect(host, port, error)) continue;
    std::string line;
    if (!client.roundtrip(request_line, line, error)) continue;
    auto parsed = parse_response(line, error);
    if (!parsed) {
      error = "malformed daemon response: " + error;
      continue;  // truncated/garbled line — transport-level, retryable
    }
    return parsed;
  }
  return std::nullopt;
}

}  // namespace aadlsched::server
