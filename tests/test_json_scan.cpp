// util::scan_json_members against util::parse_json, and parse_response (now
// a member scan) against the tree-and-tail decoder it replaced, kept below.
// The lines are the request and response lines the service renders for the
// shipped models, the other ops and protocol errors, plus 12,000 seeded
// byte and splice mutations of them: the scan must accept, reject and
// report exactly as the parser does, yield the members the parser's tree
// holds, and parse_response must fill the same Response as before.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/result_json.hpp"
#include "server/protocol.hpp"
#include "server/service.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace aadlsched;
using util::JsonValue;

/// extract_trailing_object as it was: the bytes after the last
/// `"key": ` marker, when they are an object closing the line.
std::string_view legacy_trailing_object(std::string_view line,
                                        std::string_view key) {
  const std::string marker = "\"" + std::string(key) + "\": ";
  const auto pos = line.rfind(marker);
  if (pos == std::string_view::npos) return {};
  const std::size_t start = pos + marker.size();
  if (start >= line.size() || line[start] != '{') return {};
  std::string_view tail = line.substr(start);
  while (!tail.empty() && (tail.back() == '\n' || tail.back() == '\r'))
    tail.remove_suffix(1);
  if (tail.empty() || tail.back() != '}') return {};
  tail.remove_suffix(1);
  return tail;
}

/// parse_response as it was: a whole parse_json tree for the scalars, the
/// embedded objects re-extracted from the tail of the line.
std::optional<server::Response> legacy_parse_response(std::string_view line,
                                                      std::string& error) {
  const auto doc = util::parse_json(line, &error);
  if (!doc) return std::nullopt;
  if (!doc->is_object()) {
    error = "response must be a JSON object";
    return std::nullopt;
  }
  server::Response resp;
  if (const auto* op = doc->get("op")) {
    if (const auto parsed = server::op_from_string(op->as_string()))
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
  resp.result_json = std::string(legacy_trailing_object(line, "result"));
  resp.stats_json = std::string(legacy_trailing_object(line, "stats"));
  return resp;
}

/// A debug rendering that tells any two different JsonValues apart.
std::string canonical(const JsonValue& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_int()) return "i" + std::to_string(v.as_int());
  if (v.is_double()) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "d%.17g", v.as_double());
    return buf;
  }
  if (v.is_string()) return "s" + std::to_string(v.as_string().size()) + ":" +
                            v.as_string();
  std::string out;
  if (v.is_array()) {
    out = "[";
    for (const JsonValue& e : v.as_array()) out += canonical(e) + ",";
    return out + "]";
  }
  out = "{";
  for (const auto& [k, e] : v.as_object())
    out += std::to_string(k.size()) + ":" + k + "=" + canonical(e) + ",";
  return out + "}";
}

/// `bytes` as parse_response decoded the embedded `key` object: verbatim
/// bytes of the line that parse to the tree's member, or "" when the
/// member is absent or no object. Where the old tail extraction found a
/// well-formed object equal to the member (the renderer's layout held),
/// the same bytes. A layout it did not expect, such as `"result":{`
/// without the space, made it return "" for a valid object.
void expect_embedded(const std::string& bytes, const std::string& legacy,
                     const JsonValue& doc, std::string_view key,
                     const std::string& line) {
  const JsonValue* member = doc.get(key);
  if (!member || !member->is_object()) {
    EXPECT_EQ(bytes, "") << key << " in " << line;
    return;
  }
  const auto parsed = util::parse_json(bytes);
  ASSERT_TRUE(parsed) << key << " in " << line;
  EXPECT_EQ(canonical(*parsed), canonical(*member)) << key << " in " << line;
  EXPECT_TRUE(bytes.starts_with('{') && bytes.ends_with('}') &&
              line.find(bytes) != std::string::npos)
      << key << " in " << line;
  const auto old = util::parse_json(legacy);
  if (old && canonical(*old) == canonical(*member) && legacy.ends_with('}')) {
    EXPECT_EQ(bytes, legacy) << key << " in " << line;
  }
}

/// Every field as the old decoder filled it; the embedded objects byte for
/// byte when `exact`, else as expect_embedded allows.
void expect_same_response(const server::Response& a,
                          const server::Response& b, const JsonValue& doc,
                          const std::string& line, bool exact) {
  EXPECT_EQ(a.op, b.op) << line;
  EXPECT_EQ(a.ok, b.ok) << line;
  EXPECT_EQ(a.id, b.id) << line;
  EXPECT_EQ(a.error, b.error) << line;
  EXPECT_EQ(a.outcome, b.outcome) << line;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << line;
  EXPECT_EQ(a.cached, b.cached) << line;
  EXPECT_EQ(a.cache_tier, b.cache_tier) << line;
  EXPECT_EQ(a.served_ms, b.served_ms) << line;
  if (exact) {
    EXPECT_EQ(a.result_json, b.result_json) << line;
    EXPECT_EQ(a.stats_json, b.stats_json) << line;
  }
  expect_embedded(a.result_json, b.result_json, doc, "result", line);
  expect_embedded(a.stats_json, b.stats_json, doc, "stats", line);
}

struct Counts {
  std::size_t accepted = 0, rejected = 0, responses = 0;
};

/// Checks one line against the parser. `is_response` lines must also decode
/// as before (the embedded objects byte for byte when `exact`).
void check_line(const std::string& line, bool is_response, bool exact,
                Counts& counts) {
  std::string tree_error, scan_error;
  const auto tree = util::parse_json(line, &tree_error);
  std::map<std::string, std::string_view, std::less<>> last;
  const util::JsonScan scan = util::scan_json_members(
      line,
      [&](const util::JsonMember& m) { last[std::string(m.key)] = m.raw; },
      &scan_error);
  ASSERT_EQ(tree.has_value(), scan != util::JsonScan::Invalid) << line;
  EXPECT_EQ(tree_error, scan_error) << line;
  if (!tree) {
    ++counts.rejected;
    return;
  }
  ++counts.accepted;
  ASSERT_EQ(tree->is_object(), scan == util::JsonScan::Object) << line;
  if (!tree->is_object()) return;
  std::map<std::string, std::string, std::less<>> from_scan, from_tree;
  for (const auto& [key, raw] : last)
    from_scan[key] = canonical(util::json_member_value(raw));
  for (const auto& [key, value] : tree->as_object())
    from_tree[key] = canonical(value);
  EXPECT_EQ(from_scan, from_tree) << line;

  if (!is_response) return;
  std::string error, legacy_error;
  const auto resp = server::parse_response(line, error);
  const auto legacy = legacy_parse_response(line, legacy_error);
  ASSERT_TRUE(resp && legacy) << line;
  expect_same_response(*resp, *legacy, *tree, line, exact);
  ++counts.responses;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Lines {
  std::vector<std::string> requests, responses;
};

/// Every shipped model at two quanta, lint on and off, answered cold and
/// then from the memory tier; stats and ping; protocol errors.
const Lines& rendered_lines() {
  static const Lines lines = [] {
    Lines out;
    server::Service svc;
    const auto ask = [&](const std::string& request) {
      out.requests.push_back(request);
      out.responses.push_back(svc.handle_line(request));
    };
    std::vector<std::filesystem::path> models;
    for (const auto& entry :
         std::filesystem::directory_iterator(AADLSCHED_MODELS_DIR))
      models.push_back(entry.path());
    std::sort(models.begin(), models.end());  // a fixed mutation pool
    std::size_t n = 0;
    for (const auto& path : models) {
      const std::string text = slurp(path);
      // The root is the last system implementation the file declares.
      const auto at = text.rfind("system implementation ");
      if (at == std::string::npos) continue;
      const std::size_t begin = at + 22;
      const std::string root =
          text.substr(begin, text.find_first_of(" \n", begin) - begin);
      for (const std::int64_t quantum_ms : {5, 10}) {
        for (const bool lint : {true, false}) {
          server::Request req;
          req.op = server::Op::Analyze;
          req.id = "r";
          req.id += std::to_string(n++);
          req.model = text;
          req.root = root;
          req.options.quantum_ns = quantum_ms * 1'000'000;
          req.options.run_lint = lint;
          req.options.max_states = 20'000;
          const std::string line = server::render_request(req);
          ask(line);  // cold
          ask(line);  // memory hit
        }
      }
    }
    for (const server::Op op : {server::Op::Stats, server::Op::Ping}) {
      server::Request req;
      req.op = op;
      req.id = "o" + std::to_string(n++);
      ask(server::render_request(req));
    }
    ask(R"({"v": 1, "op": "analyze", "id": "x", "root": "A.impl"})");
    ask(R"({"v": 2, "op": "ping"})");
    ask(R"({"v": 1, "op": "fly"})");
    ask("[1, 2]");
    ask("{\"v\": 1, \"op\": \"analyze\", \"id\": \"\\\"result\\\": {\"}");

    // Text that names the embedded member, inside strings.
    server::Response error;
    error.ok = false;
    error.id = "\"result\": {\"outcome\": \"schedulable\"}";
    error.error = "bad \"result\": {} and \"stats\": {}";
    out.responses.push_back(server::render_response(error));
    server::Response hit;
    hit.op = server::Op::Analyze;
    hit.ok = true;
    hit.id = "\"result\": {";
    hit.outcome = core::Outcome::Schedulable;
    hit.fingerprint = std::string(32, 'a');
    hit.cached = true;
    hit.cache_tier = "memory";
    hit.served_ms = 0.25;
    hit.result_json = R"({"outcome": "schedulable", "note": "\"result\": {"})";
    out.responses.push_back(server::render_response(hit));
    return out;
  }();
  return lines;
}

TEST(JsonScan, RenderedLinesDecodeAsBefore) {
  const Lines& lines = rendered_lines();
  Counts counts;
  for (const std::string& line : lines.requests)
    check_line(line, false, true, counts);
  for (const std::string& line : lines.responses)
    check_line(line, true, true, counts);
  EXPECT_EQ(counts.rejected, 0u);
  EXPECT_GE(counts.responses, 60u);
}

TEST(JsonScan, EmbeddedMemberNamesInStringsAreNotMembers) {
  const Lines& lines = rendered_lines();
  const std::string& error_line = lines.responses.at(lines.responses.size() - 2);
  std::string error;
  const auto resp = server::parse_response(error_line, error);
  ASSERT_TRUE(resp) << error;
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->id, "\"result\": {\"outcome\": \"schedulable\"}");
  EXPECT_EQ(resp->error, "bad \"result\": {} and \"stats\": {}");
  EXPECT_EQ(resp->result_json, "");
  EXPECT_EQ(resp->stats_json, "");

  const auto hit = server::parse_response(lines.responses.back(), error);
  ASSERT_TRUE(hit) << error;
  EXPECT_EQ(hit->id, "\"result\": {");
  EXPECT_EQ(hit->result_json,
            R"({"outcome": "schedulable", "note": "\"result\": {"})");
}

TEST(JsonScan, ResultBytesSurviveMemberOrder) {
  // The old decoder needed "result" last; the scan finds it anywhere.
  const std::string line =
      R"({"result": {"outcome": "schedulable"}, "ok": true, "op": "analyze"})";
  std::string error;
  const auto resp = server::parse_response(line, error);
  ASSERT_TRUE(resp) << error;
  EXPECT_EQ(resp->result_json, R"({"outcome": "schedulable"})");
  EXPECT_EQ(resp->op, server::Op::Analyze);
  EXPECT_TRUE(resp->ok);
}

TEST(JsonScan, SeededMutationsAgreeWithParser) {
  const Lines& lines = rendered_lines();
  std::vector<const std::string*> pool;
  std::vector<bool> is_response;
  for (const std::string& l : lines.requests) {
    pool.push_back(&l);
    is_response.push_back(false);
  }
  for (const std::string& l : lines.responses) {
    pool.push_back(&l);
    is_response.push_back(true);
  }
  static constexpr std::string_view kBytes = "{}[]\":,\\ \n\t0123456789.eE-+tfnlu";
  util::Xoshiro256 rng(20261020);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  };
  const auto any_byte = [&] {
    return rng.uniform_int(0, 1) ? kBytes[pick(kBytes.size())]
                                 : static_cast<char>(rng.uniform_int(0, 255));
  };
  Counts counts;
  for (int i = 0; i < 12'000; ++i) {
    const std::size_t base = pick(pool.size());
    std::string line = *pool[base];
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int e = 0; e < edits && !line.empty(); ++e) {
      const std::size_t at = pick(line.size());
      switch (rng.uniform_int(0, 4)) {
        case 0: line[at] = any_byte(); break;
        case 1: line.erase(at, 1); break;
        case 2: line.insert(line.begin() + static_cast<std::ptrdiff_t>(at),
                            any_byte());
          break;
        case 3: {  // splice in a piece of another line
          const std::string& donor = *pool[pick(pool.size())];
          const std::size_t from = pick(donor.size());
          const std::size_t len = 1 + pick(std::min<std::size_t>(
                                          64, donor.size() - from));
          line.replace(at, pick(8), donor.substr(from, len));
          break;
        }
        default: line.resize(at); break;
      }
    }
    check_line(line, is_response[base], false, counts);
    if (HasFatalFailure()) return;
  }
  // Both outcomes must be well represented for the sweep to mean much.
  EXPECT_GT(counts.accepted, 1000u);
  EXPECT_GT(counts.rejected, 1000u);
}

}  // namespace
