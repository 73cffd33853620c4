#include "server/protocol.hpp"

#include "core/result_json.hpp"
#include "util/json.hpp"

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

std::optional<Request> parse_request(std::string_view line,
                                     std::string& error) {
  const auto doc = util::parse_json(line, &error);
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

  const auto* model = doc->get("model");
  const auto* root = doc->get("root");
  if (!model || !model->is_string() || model->as_string().empty()) {
    error = "analyze request needs a non-empty \"model\"";
    return std::nullopt;
  }
  if (!root || !root->is_string() || root->as_string().empty()) {
    error = "analyze request needs a non-empty \"root\"";
    return std::nullopt;
  }
  req.model = model->as_string();
  req.root = root->as_string();
  if (const auto* nc = doc->get("no_cache")) req.no_cache = nc->as_bool();
  if (const auto* r = doc->get("resume")) req.resume = r->as_bool();
  if (const auto* nk = doc->get("no_checkpoint"))
    req.no_checkpoint = nk->as_bool();
  if (const auto* opts = doc->get("options"); opts && opts->is_object()) {
    RequestOptions& o = req.options;
    if (const auto* q = opts->get("quantum_ms"))
      o.quantum_ns = q->as_int(1) * 1'000'000;
    if (const auto* q = opts->get("quantum_ns")) o.quantum_ns = q->as_int(o.quantum_ns);
    if (const auto* m = opts->get("max_states"))
      o.max_states = static_cast<std::uint64_t>(m->as_int(5'000'000));
    if (const auto* d = opts->get("deadline_ms")) o.deadline_ms = d->as_double();
    if (const auto* m = opts->get("memory_budget_mb"))
      o.memory_budget_mb = static_cast<std::uint64_t>(m->as_int());
    if (const auto* l = opts->get("lint")) o.run_lint = l->as_bool(true);
    if (const auto* lc = opts->get("late_completion"))
      o.late_completion = lc->as_bool();
    if (const auto* nr = opts->get("no_reduction"))
      o.no_reduction = nr->as_bool();
    if (const auto* e = opts->get("engine")) {
      const auto parsed = e->is_string()
                              ? core::engine_from_string(e->as_string())
                              : std::nullopt;
      if (!parsed) {
        error = "options.engine must be \"enumerative\", \"symbolic\" or "
                "\"auto\"";
        return std::nullopt;
      }
      o.engine = *parsed;
    }
    if (o.quantum_ns <= 0) {
      error = "options.quantum_ms must be positive";
      return std::nullopt;
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
    if (req.resume) w.key("resume").value(true);
    if (req.no_checkpoint) w.key("no_checkpoint").value(true);
    const RequestOptions& o = req.options;
    w.key("options").begin_object();
    w.key("quantum_ns").value(o.quantum_ns);
    w.key("max_states").value(o.max_states);
    w.key("deadline_ms").value(o.deadline_ms);
    w.key("memory_budget_mb").value(o.memory_budget_mb);
    w.key("lint").value(o.run_lint);
    w.key("late_completion").value(o.late_completion);
    w.key("no_reduction").value(o.no_reduction);
    w.key("engine").value(core::to_string(o.engine));
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
      if (resp.resumed) {
        w.key("resumed").value(true);
        w.key("resumed_depth").value(resp.resumed_depth);
      }
      if (resp.checkpoint_captured) w.key("checkpoint_captured").value(true);
      w.key("result").raw(resp.result_json);  // must stay the last field
      break;
    case Op::Stats:
      w.key("stats").raw(resp.stats_json);  // must stay the last field
      break;
    case Op::Ping:
    case Op::Shutdown:
      break;
  }
  w.end_object();
  return std::move(w).str();
}

std::string_view extract_trailing_object(std::string_view line,
                                         std::string_view key) {
  // The renderer guarantees `"key": {...}}` is the tail of the line; find
  // the *last* marker occurrence so a model text containing the marker
  // string cannot confuse the client (requests embed models; responses
  // never re-embed them, but stay paranoid).
  const std::string marker = "\"" + std::string(key) + "\": ";
  const auto pos = line.rfind(marker);
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + marker.size();
  if (start >= line.size() || line[start] != '{') return {};
  // Trim the single closing brace of the enclosing response object.
  std::string_view tail = line.substr(start);
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.remove_suffix(1);
  if (tail.empty() || tail.back() != '}') return {};
  tail.remove_suffix(1);
  return tail;
}

std::optional<Response> parse_response(std::string_view line,
                                       std::string& error) {
  const auto doc = util::parse_json(line, &error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    error = "response must be a JSON object";
    return std::nullopt;
  }
  Response resp;
  if (const auto* op = doc->get("op")) {
    if (const auto parsed = op_from_string(op->as_string()))
      resp.op = *parsed;
  }
  if (const auto* id = doc->get("id")) resp.id = id->as_string();
  resp.ok = doc->get("ok") && doc->get("ok")->as_bool();
  if (const auto* err = doc->get("error")) resp.error = err->as_string();
  if (const auto* out = doc->get("outcome")) {
    if (const auto parsed = core::outcome_from_string(out->as_string()))
      resp.outcome = *parsed;
  }
  if (const auto* fp = doc->get("fingerprint"))
    resp.fingerprint = fp->as_string();
  if (const auto* c = doc->get("cached")) resp.cached = c->as_bool();
  if (const auto* t = doc->get("cache_tier")) resp.cache_tier = t->as_string();
  if (const auto* s = doc->get("served_ms")) resp.served_ms = s->as_double();
  if (const auto* r = doc->get("resumed")) resp.resumed = r->as_bool();
  if (const auto* d = doc->get("resumed_depth"))
    resp.resumed_depth = static_cast<std::uint64_t>(d->as_int());
  if (const auto* c = doc->get("checkpoint_captured"))
    resp.checkpoint_captured = c->as_bool();
  resp.result_json = std::string(extract_trailing_object(line, "result"));
  resp.stats_json = std::string(extract_trailing_object(line, "stats"));
  return resp;
}

}  // namespace aadlsched::server
