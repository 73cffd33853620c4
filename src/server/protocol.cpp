#include "server/protocol.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "core/result_json.hpp"
#include "util/json.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::server {

std::string_view to_string(Op op) {
  switch (op) {
    case Op::Analyze: return "analyze";
    case Op::Stats: return "stats";
    case Op::Ping: return "ping";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

std::optional<Op> op_from_string(std::string_view s) {
  for (const Op op : {Op::Analyze, Op::Stats, Op::Ping, Op::Shutdown})
    if (s == to_string(op)) return op;
  return std::nullopt;
}

namespace {

/// The lowest value the flag takes, in its unit: the wire minimum without
/// the wire's 0 = no limit (leaving the flag out means no limit).
std::int64_t flag_min(const OptionSpec& spec) {
  return std::max<std::int64_t>(1, spec.min / spec.scale);
}

std::optional<std::int64_t> engine_value(std::string_view name) {
  const auto e = core::engine_from_string(name);
  if (!e) return std::nullopt;
  return static_cast<std::int64_t>(*e);
}

/// What `spec` accepts between lo and hi, for error messages.
std::string accepted(const OptionSpec& spec, std::int64_t lo,
                     std::int64_t hi) {
  if (spec.is_switch()) return "true or false";
  if (spec.is_engine()) return std::string(spec.unit);
  return "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) +
         "]";
}

}  // namespace

const OptionSpec* find_flag(std::string_view flag) {
  for (const OptionSpec& spec : kOptionTable)
    if (spec.flag == flag) return &spec;
  return nullptr;
}

bool parse_flag(const OptionSpec& spec, std::string_view text,
                RequestOptions& o) {
  // A switch flips its default; the other rows read `text`.
  std::optional<std::int64_t> n = !spec.get(RequestOptions{});
  if (spec.is_engine()) {
    n = engine_value(text);
    if (!n)
      std::cerr << "invalid value '" << text << "' for " << spec.flag
                << " (expected " << spec.unit << ")\n";
  } else if (!spec.is_switch()) {
    n = util::parse_option(spec.flag, text, flag_min(spec),
                           spec.max / spec.scale);
  }
  if (n) spec.set(o, *n * spec.scale);
  return n.has_value();
}

core::AnalyzerOptions to_analyzer_options(const RequestOptions& ro) {
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = ro.quantum_ns;
  if (ro.late_completion)
    opts.translation.time_model = translate::ExecutionTimeModel::LateCompletion;
  opts.run_lint = ro.run_lint;
  opts.engine = ro.engine;
  opts.exploration.max_states = ro.max_states;
  opts.exploration.budget.deadline_ms = static_cast<double>(ro.deadline_ms);
  opts.exploration.budget.memory_bytes = ro.memory_budget_mb * 1024 * 1024;
  return opts;
}

std::optional<Request> parse_request(std::string_view line,
                                     std::string& error) {
  auto doc = util::parse_json(line, &error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    error = "request must be a JSON object";
    return std::nullopt;
  }
  if (const auto* v = doc->get("v"); v && v->as_int() != kProtocolVersion) {
    error = "unsupported protocol version " + std::to_string(v->as_int());
    return std::nullopt;
  }
  const auto* op_field = doc->get("op");
  if (!op_field || !op_field->is_string()) {
    error = "missing \"op\"";
    return std::nullopt;
  }
  const auto op = op_from_string(op_field->as_string());
  if (!op) {
    error = "unknown op \"" + op_field->as_string() + '"';
    return std::nullopt;
  }

  Request req;
  req.op = *op;
  if (const auto* id = doc->get("id")) req.id = id->as_string();
  if (req.op != Op::Analyze) return req;

  auto* model = doc->get("model");
  auto* root = doc->get("root");
  if (!model || !model->is_string() || model->as_string().empty()) {
    error = "analyze request needs a non-empty \"model\"";
    return std::nullopt;
  }
  if (!root || !root->is_string() || root->as_string().empty()) {
    error = "analyze request needs a non-empty \"root\"";
    return std::nullopt;
  }
  // The document is ours: move its strings, the ~5 KB model above all.
  req.model = model->take_string();
  req.root = root->take_string();
  if (const auto* nc = doc->get("no_cache")) req.no_cache = nc->as_bool();
  if (const auto* opts = doc->get("options"); opts && opts->is_object()) {
    for (const OptionSpec& spec : kOptionTable) {
      // The legacy key first, so the wire-unit key wins when both are set.
      for (const std::string_view key : {spec.legacy_key, spec.key}) {
        const util::JsonValue* v = key.empty() ? nullptr : opts->get(key);
        if (!v) continue;
        const bool legacy = key == spec.legacy_key;
        const std::int64_t lo = legacy ? flag_min(spec) : spec.min;
        const std::int64_t hi = legacy ? spec.max / spec.scale : spec.max;
        std::optional<std::int64_t> n;
        if (spec.is_switch()) {
          if (v->is_bool()) n = v->as_bool();
        } else if (spec.is_engine()) {
          if (v->is_string()) n = engine_value(v->as_string());
        } else if (v->is_int()) {
          n = v->as_int();
        }
        if (!n || *n < lo || *n > hi) {
          error = "options." + std::string(key) + " must be " +
                  accepted(spec, lo, hi);
          return std::nullopt;
        }
        spec.set(req.options, legacy ? *n * spec.scale : *n);
      }
    }
  }
  return req;
}

std::string render_request(const Request& req) {
  util::JsonWriter w;
  w.begin_object();
  w.key("v").value(kProtocolVersion);
  w.key("op").value(to_string(req.op));
  if (!req.id.empty()) w.key("id").value(req.id);
  if (req.op == Op::Analyze) {
    w.key("model").value(req.model);
    w.key("root").value(req.root);
    if (req.no_cache) w.key("no_cache").value(true);
    w.key("options").begin_object();
    for (const OptionSpec& spec : kOptionTable) {
      const std::int64_t v = spec.get(req.options);
      w.key(spec.key);
      if (spec.is_switch())
        w.value(v != 0);
      else if (spec.is_engine())
        w.value(core::to_string(static_cast<core::Engine>(v)));
      else
        w.value(v);
    }
    w.end_object();
  }
  w.end_object();
  return std::move(w).str();
}

std::string render_response(const Response& resp) {
  util::JsonWriter w;
  w.begin_object();
  w.key("v").value(kProtocolVersion);
  w.key("op").value(resp.ok ? to_string(resp.op) : "error");
  if (!resp.id.empty()) w.key("id").value(resp.id);
  w.key("ok").value(resp.ok);
  if (!resp.ok) {
    w.key("error").value(resp.error);
    w.end_object();
    return std::move(w).str();
  }
  switch (resp.op) {
    case Op::Analyze:
      w.key("outcome").value(core::to_string(resp.outcome));
      w.key("fingerprint").value(resp.fingerprint);
      w.key("cached").value(resp.cached);
      w.key("cache_tier").value(resp.cache_tier);
      w.key("served_ms").value(resp.served_ms);
      w.key("result").raw(resp.result_json);
      break;
    case Op::Stats:
      w.key("stats").raw(resp.stats_json);
      break;
    case Op::Ping:
    case Op::Shutdown:
      break;
  }
  w.end_object();
  return std::move(w).str();
}

std::optional<Response> parse_response(std::string_view line,
                                       std::string& error) {
  // Raw member bytes, the last occurrence winning as in parse_json's tree.
  std::string_view op, id, ok, err, outcome, fingerprint, cached, tier,
      served, result, stats;
  const std::pair<std::string_view, std::string_view*> fields[] = {
      {"op", &op},
      {"id", &id},
      {"ok", &ok},
      {"error", &err},
      {"outcome", &outcome},
      {"fingerprint", &fingerprint},
      {"cached", &cached},
      {"cache_tier", &tier},
      {"served_ms", &served},
      {"result", &result},
      {"stats", &stats},
  };
  const auto scan = util::scan_json_members(
      line,
      [&](const util::JsonMember& m) {
        for (const auto& [key, raw] : fields) {
          if (m.key == key) {
            *raw = m.raw;
            break;
          }
        }
      },
      &error);
  if (scan == util::JsonScan::Invalid) return std::nullopt;
  if (scan == util::JsonScan::NotObject) {
    error = "response must be a JSON object";
    return std::nullopt;
  }
  using util::json_member_value;
  // The embedded objects are kept byte for byte: a parse/re-render round
  // trip would break the byte-identical-result guarantee.
  const auto object_bytes = [](std::string_view raw) {
    return raw.starts_with('{') ? std::string(raw) : std::string();
  };
  Response resp;
  if (const auto parsed = op_from_string(json_member_value(op).as_string()))
    resp.op = *parsed;
  resp.id = json_member_value(id).take_string();
  resp.ok = json_member_value(ok).as_bool();
  resp.error = json_member_value(err).take_string();
  if (const auto parsed =
          core::outcome_from_string(json_member_value(outcome).as_string()))
    resp.outcome = *parsed;
  resp.fingerprint = json_member_value(fingerprint).take_string();
  resp.cached = json_member_value(cached).as_bool();
  resp.cache_tier = json_member_value(tier).take_string();
  resp.served_ms = json_member_value(served).as_double();
  resp.result_json = object_bytes(result);
  resp.stats_json = object_bytes(stats);
  return resp;
}

}  // namespace aadlsched::server
