// Wire protocol of the analysis service: newline-delimited JSON, one
// request object per line in, one response object per line out. The same
// structs drive the in-process server::Service API, so tests and the
// --connect client share every code path except the socket.
//
// Request (analyze):
//   {"v": 1, "op": "analyze", "id": "r1", "model": "<aadl text>",
//    "root": "Root.impl",
//    "options": {"quantum_ms": 1, "max_states": 5000000, "deadline_ms": 0,
//                "memory_budget_mb": 0, "lint": true,
//                "late_completion": false, "no_reduction": false,
//                "engine": "enumerative"},
//    "no_cache": false, "resume": false, "no_checkpoint": false}
//   Unknown option keys are ignored, so older clients that still send
//   "workers" are served unchanged.
// Request (stats | ping | shutdown):
//   {"v": 1, "op": "stats"}
//
// Response (analyze):
//   {"v": 1, "op": "analyze", "id": "r1", "ok": true,
//    "fingerprint": "<32 hex>", "cached": true, "cache_tier": "memory",
//    "served_ms": 0.31, "resumed": true, "resumed_depth": 7,
//    "checkpoint_captured": true, "result": {<render_result_json object>}}
//   ("resumed"/"resumed_depth"/"checkpoint_captured" appear only when set —
//   they live outside "result" so cold and resumed runs that reach the same
//   verdict render byte-identical result objects.)
// Response (stats):
//   {"v": 1, "op": "stats", "ok": true, "stats": {...}}
// Response (protocol error):
//   {"v": 1, "op": "error", "ok": false, "error": "..."}
//
// The "result"/"stats" member is always the *last* field, so the client
// can recover the embedded object byte-for-byte (extract_trailing_object)
// without a parse/re-render round trip that would break the
// byte-identical-result guarantee.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/analyzer.hpp"

namespace aadlsched::server {

inline constexpr int kProtocolVersion = 1;

enum class Op : std::uint8_t { Analyze, Stats, Ping, Shutdown };

std::string_view to_string(Op op);
std::optional<Op> op_from_string(std::string_view s);

/// Per-request analysis knobs; mirrors the aadlsched CLI flags. Budgets are
/// requests, not entitlements: the service clamps them to its configured
/// caps before running.
struct RequestOptions {
  std::int64_t quantum_ns = 1'000'000;  // CLI default (1 ms)
  std::uint64_t max_states = 5'000'000;
  double deadline_ms = 0;
  std::uint64_t memory_budget_mb = 0;
  bool run_lint = true;
  bool late_completion = false;
  /// Disable the state-space reduction layer (DESIGN.md §13). Part of the
  /// cache key even though the canonical result JSON is identical either
  /// way: cached entries record budget-invariant *conclusive* outcomes, and
  /// mixing reduction settings under one key would conflate their
  /// checkpoint blobs (whose visited sets are representation-dependent).
  bool no_reduction = false;
  /// Exploration engine (DESIGN.md §16). Part of the cache key: the two
  /// engines agree on verdicts inside the symbolic fragment, but their
  /// result objects differ in engine-observability fields.
  core::Engine engine = core::Engine::Enumerative;
};

struct Request {
  Op op = Op::Ping;
  std::string id;     // echoed back verbatim; "" is fine
  std::string model;  // AADL source text (analyze)
  std::string root;   // root implementation, e.g. "Root.impl" (analyze)
  RequestOptions options;
  bool no_cache = false;  // bypass cache lookup AND store (forced re-run)
  // Warm re-exploration (DESIGN.md §12):
  bool resume = false;         // resume from a stored checkpoint if one exists
  bool no_checkpoint = false;  // never capture a checkpoint for this run
};

struct Response {
  Op op = Op::Ping;
  bool ok = false;
  std::string id;
  std::string error;  // when !ok (protocol-level failure)
  // analyze:
  core::Outcome outcome = core::Outcome::Error;
  std::string fingerprint;  // 32 hex chars
  bool cached = false;
  std::string cache_tier;  // "memory" | "disk" | "none"
  double served_ms = 0;
  // Warm re-exploration observability (kept OUT of result_json so cold and
  // resumed runs stay byte-identical there):
  bool resumed = false;              // run continued a stored checkpoint
  std::uint64_t resumed_depth = 0;   // wavefront depth the run resumed from
  bool checkpoint_captured = false;  // a checkpoint was stored for this key
  std::string result_json;  // canonical result object (render_result_json)
  // stats:
  std::string stats_json;
};

/// Parse one request line. On failure returns nullopt with a reason in
/// `error` — the server answers with an ok=false response, it never drops
/// the connection over a bad request.
std::optional<Request> parse_request(std::string_view line,
                                     std::string& error);
/// Render a request line (client side). No trailing newline.
std::string render_request(const Request& req);

/// Render a response line. No trailing newline.
std::string render_response(const Response& resp);
/// Parse a response line (client side). The embedded result/stats object is
/// extracted verbatim into result_json/stats_json.
std::optional<Response> parse_response(std::string_view line,
                                       std::string& error);

/// The raw bytes of the object value of `key` when it is the final member
/// of a one-line JSON object: ... "key": {<bytes>}}\n. Empty when absent.
std::string_view extract_trailing_object(std::string_view line,
                                         std::string_view key);

}  // namespace aadlsched::server
