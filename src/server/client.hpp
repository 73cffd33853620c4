// Retrying daemon client: the transport policy behind `aadlsched --connect`
// and the experiment harness's daemon backend. One request line out, one
// response line back, with bounded exponential backoff across transport
// failures (connection refused, timeout, truncated response). A daemon that
// *answers* with an error is never retried — that is an analysis/protocol
// failure, not unreachability, and retrying it would just repeat the work.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "server/protocol.hpp"

namespace aadlsched::server {

/// Per-attempt timeouts plus bounded retry. Defaults mirror the CLI: a 2 s
/// connect deadline, no I/O deadline (explorations can legitimately run
/// long), three retries.
struct RetryPolicy {
  double connect_timeout_ms = 2000;
  double io_timeout_ms = 0;
  unsigned retries = 3;
};

/// Invoked before each backoff sleep with the 1-based attempt about to run,
/// the policy's retry budget, the chosen delay, and the failure that caused
/// the retry. The CLI logs these to stderr; batch runners may stay quiet.
using RetryObserver = std::function<void(
    unsigned attempt, unsigned retries, double delay_ms,
    const std::string& error)>;

/// Send one request and read one response, retrying transport failures with
/// exponential backoff (base 100 ms doubling, capped at 2 s) plus uniform
/// jitter in [0, base/2) to decorrelate a herd of clients hammering one
/// restarting daemon. Returns nullopt with the last transport error in
/// `error` once the retry budget is exhausted.
std::optional<Response> request_with_retry(const std::string& host,
                                           std::uint16_t port,
                                           const Request& req,
                                           const RetryPolicy& policy,
                                           std::string& error,
                                           const RetryObserver& on_retry = {});

}  // namespace aadlsched::server
