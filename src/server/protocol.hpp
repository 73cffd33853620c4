// Wire protocol of the analysis service: newline-delimited JSON, one
// request object per line in, one response object per line out. The same
// structs drive the in-process server::Service API, so tests and the
// --connect client share every code path except the socket.
//
// Request (analyze):
//   {"v": 1, "op": "analyze", "id": "r1", "model": "<aadl text>",
//    "root": "Root.impl",
//    "options": {"quantum_ns": 1000000, "max_states": 5000000,
//                "deadline_ms": 0, "memory_budget_mb": 0,
//                "late_completion": false, "lint": true,
//                "no_reduction": false, "engine": "enumerative"},
//    "no_cache": false, "resume": false, "no_checkpoint": false}
//   Each option is a row of kOptionTable below (defaults: RequestOptions).
//   Integers must lie in the row's [min, max]: quantum_ns [1, 10^15]
//   (the legacy "quantum_ms" takes [1, 10^9] ms), max_states [1, 2^63-1],
//   deadline_ms [0, 2^31-1], memory_budget_mb [0, 10^9], where 0 = no
//   limit. Anything else is a protocol error naming options.<key>.
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
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "core/analyzer.hpp"

namespace aadlsched::server {

inline constexpr int kProtocolVersion = 1;

enum class Op : std::uint8_t { Analyze, Stats, Ping, Shutdown };

std::string_view to_string(Op op);
std::optional<Op> op_from_string(std::string_view s);

/// Per-request analysis knobs, one field per row of kOptionTable. Budgets
/// are requests, not entitlements: the service clamps them to its
/// configured caps before running.
struct RequestOptions {
  std::int64_t quantum_ns = 1'000'000;  // CLI default (1 ms)
  std::uint64_t max_states = 5'000'000;
  std::uint64_t deadline_ms = 0;       // 0 = no limit
  std::uint64_t memory_budget_mb = 0;  // 0 = no limit
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

/// One per-request knob: its wire key, its aadlsched flag, the values it
/// accepts, whether it is part of the cache key, and the field it sets. The
/// field's type gives the value's shape: an integer, a switch (the flag
/// takes no value and flips the default) or an engine name. get/set carry
/// every value as an int64 (a switch as 0/1, an engine as its enumerator);
/// the cache key hashes that.
struct OptionSpec {
  using Field =
      std::variant<std::int64_t RequestOptions::*,
                   std::uint64_t RequestOptions::*, bool RequestOptions::*,
                   core::Engine RequestOptions::*>;

  std::string_view key;   // wire key; its value is in wire units
  std::string_view flag;  // aadlsched flag
  std::string_view unit;  // the flag's unit; for the engine, its names
  std::int64_t scale;     // wire value = flag value * scale
  std::int64_t min, max;  // accepted wire values; min 0 means 0 = no limit
  bool cache_key;         // hashed into the service's cache key
  Field field;
  std::string_view legacy_key = {};  // older wire key, in the flag's unit

  bool is_switch() const {
    return std::holds_alternative<bool RequestOptions::*>(field);
  }
  bool is_engine() const {
    return std::holds_alternative<core::Engine RequestOptions::*>(field);
  }
  std::int64_t get(const RequestOptions& o) const {
    return std::visit([&](auto f) { return static_cast<std::int64_t>(o.*f); },
                      field);
  }
  void set(RequestOptions& o, std::int64_t v) const {
    std::visit(
        [&](auto f) { o.*f = static_cast<std::decay_t<decltype(o.*f)>>(v); },
        field);
  }
};

/// The options schema. parse_request, render_request, the service's cache
/// key and the aadlsched flags all loop over these rows; the cache key
/// hashes the cache_key rows in this order, so keep the order stable.
inline constexpr OptionSpec kOptionTable[] = {
    {"quantum_ns", "--quantum", "ms", 1'000'000, 1, 1'000'000'000'000'000,
     true, &RequestOptions::quantum_ns, "quantum_ms"},
    {"max_states", "--max-states", "states", 1, 1,
     std::numeric_limits<std::int64_t>::max(), false,
     &RequestOptions::max_states},
    {"deadline_ms", "--deadline-ms", "ms", 1, 0,
     std::numeric_limits<std::int32_t>::max(), false,
     &RequestOptions::deadline_ms},
    {"memory_budget_mb", "--memory-budget-mb", "MB", 1, 0, 1'000'000'000,
     false, &RequestOptions::memory_budget_mb},
    {"late_completion", "--late-completion", "", 1, 0, 1, true,
     &RequestOptions::late_completion},
    {"lint", "--no-lint", "", 1, 0, 1, true, &RequestOptions::run_lint},
    {"no_reduction", "--no-reduction", "", 1, 0, 1, true,
     &RequestOptions::no_reduction},
    {"engine", "--engine", "enumerative|symbolic|auto", 1, 0, 2, true,
     &RequestOptions::engine},
};

/// The row whose aadlsched flag is `flag`, or null.
const OptionSpec* find_flag(std::string_view flag);

/// Set the knob of `spec` from the text after its aadlsched flag (ignored
/// for switches). A value outside the flag's range is reported on stderr
/// and returns false, leaving `o` unchanged.
bool parse_flag(const OptionSpec& spec, std::string_view text,
                RequestOptions& o);

/// The analyzer configuration a request asks for, before any service caps.
/// Local aadlsched runs use it unchanged.
core::AnalyzerOptions to_analyzer_options(const RequestOptions& ro);

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
