// util/json.hpp and util/lru_cache.hpp — the service layer's two generic
// building blocks. The parser/writer pair must round-trip everything the
// protocol puts on the wire; the LRU must evict exactly the
// least-recently-used entry (the cache-tier guarantees in DESIGN.md §11
// stand on these).
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/lru_cache.hpp"

namespace {

using aadlsched::util::JsonValue;
using aadlsched::util::JsonWriter;
using aadlsched::util::LruCache;
using aadlsched::util::parse_json;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_EQ(parse_json("true")->as_bool(), true);
  EXPECT_EQ(parse_json("false")->as_bool(true), false);
  EXPECT_EQ(parse_json("42")->as_int(), 42);
  EXPECT_EQ(parse_json("-7")->as_int(), -7);
  EXPECT_TRUE(parse_json("42")->is_int());
  EXPECT_TRUE(parse_json("42.5")->is_double());
  EXPECT_DOUBLE_EQ(parse_json("42.5")->as_double(), 42.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3")->as_double(), 1000.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\te")")->as_string(), "a\"b\\c\nd\te");
  // BMP \uXXXX escapes decode to UTF-8; raw UTF-8 passes through verbatim.
  EXPECT_EQ(parse_json("\"\\u00e9\"")->as_string(), "\xc3\xa9");
  EXPECT_EQ(parse_json("\"\\u0041\"")->as_string(), "A");
  EXPECT_EQ(parse_json("\"\xc3\xa9\"")->as_string(), "\xc3\xa9");
}

TEST(JsonParse, SurrogatePairsDecodeToSupplementaryCodePoints) {
  // U+1F600 (😀) = \uD83D\uDE00 → one 4-byte UTF-8 sequence, not the
  // CESU-8 pair of 3-byte surrogate encodings the parser used to emit.
  EXPECT_EQ(parse_json("\"\\uD83D\\uDE00\"")->as_string(),
            "\xf0\x9f\x98\x80");
  // U+10000, the first supplementary code point (boundary case).
  EXPECT_EQ(parse_json("\"\\uD800\\uDC00\"")->as_string(),
            "\xf0\x90\x80\x80");
  // U+10FFFF, the last code point (high/low surrogates both at max).
  EXPECT_EQ(parse_json("\"\\uDBFF\\uDFFF\"")->as_string(),
            "\xf4\x8f\xbf\xbf");
  // Surrounding text survives the pair.
  EXPECT_EQ(parse_json("\"a\\uD83D\\uDE00b\"")->as_string(),
            "a\xf0\x9f\x98\x80"
            "b");
}

TEST(JsonParse, LoneSurrogatesAreParseErrors) {
  std::string error;
  // Lone high surrogate (end of string, non-escape follower, wrong escape).
  EXPECT_FALSE(parse_json("\"\\uD83D\"", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
  EXPECT_FALSE(parse_json("\"\\uD83Dxy\"").has_value());
  EXPECT_FALSE(parse_json("\"\\uD83D\\n\"").has_value());
  // High surrogate followed by a \u escape that is not a low surrogate.
  EXPECT_FALSE(parse_json("\"\\uD83D\\u0041\"").has_value());
  // High surrogate followed by another high surrogate.
  EXPECT_FALSE(parse_json("\"\\uD83D\\uD83D\"").has_value());
  // Lone low surrogate.
  EXPECT_FALSE(parse_json("\"\\uDE00\"", &error).has_value());
  EXPECT_NE(error.find("surrogate"), std::string::npos);
  // Truncated second escape.
  EXPECT_FALSE(parse_json("\"\\uD83D\\uDE\"").has_value());
}

TEST(JsonParse, NestedStructure) {
  const auto v = parse_json(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  ASSERT_TRUE(v && v->is_object());
  const auto& arr = v->get("a")->as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr[1].as_int(), 2);
  EXPECT_TRUE(arr[2].get("b")->as_bool());
  EXPECT_TRUE(v->get("c")->get("d")->is_null());
  EXPECT_EQ(v->get("missing"), nullptr);
  EXPECT_EQ(v->get("e")->get("not_an_object"), nullptr);
}

TEST(JsonParse, RejectsMalformed) {
  std::string err;
  EXPECT_FALSE(parse_json("", &err));
  EXPECT_FALSE(parse_json("{", &err));
  EXPECT_FALSE(parse_json("{\"a\": }", &err));
  EXPECT_FALSE(parse_json("[1, 2,]", &err));
  EXPECT_FALSE(parse_json("nul", &err));
  EXPECT_FALSE(parse_json("\"unterminated", &err));
  // Trailing garbage is an error, not silently ignored.
  EXPECT_FALSE(parse_json("{} x", &err));
  EXPECT_FALSE(err.empty());
}

// Strictness pin: each malformed document keeps its error message and byte
// offset. The expected strings were recorded with the byte-at-a-time string
// parser that preceded the run copy; the documents put the fault at the
// start, middle and end of long plain runs, where the run scan hands over
// to the escape and control-byte checks.
struct Malformed {
  const char* name;
  std::string doc;
  const char* error;
};

std::string run_of(std::size_t n) { return std::string(n, 'a'); }

std::vector<Malformed> malformed_table() {
  return {
      {"control byte at the start of a long run",
       "\"\x01" + run_of(100) + "\"",
       "unescaped control character in string at byte 2"},
      {"control byte in the middle of a long run",
       "\"" + run_of(50) + "\x1f" + run_of(50) + "\"",
       "unescaped control character in string at byte 52"},
      {"control byte at the end of a long run",
       "\"" + run_of(100) + "\n\"",
       "unescaped control character in string at byte 102"},
      {"control byte as the last byte of the input",
       "\"" + run_of(100) + "\x02",
       "unescaped control character in string at byte 102"},
      {"control byte in a key after a run",
       "{\"" + run_of(30) + "\x05\": 1}",
       "unescaped control character in string at byte 33"},
      {"control byte after multibyte UTF-8",
       "\"" + std::string(40, '\xc3') + "\x10\"",
       "unescaped control character in string at byte 42"},
      {"escape as the last byte of the input",
       "\"" + run_of(100) + "\\",
       "unterminated string at byte 102"},
      {"escape as the last byte of a key", "{\"" + run_of(20) + "\\",
       "unterminated string at byte 23"},
      {"unterminated 10 KiB string", "\"" + run_of(10240),
       "unterminated string at byte 10241"},
      {"unterminated 10 KiB value with escaped newlines",
       "{\"model\": \"" + [] {
         std::string lines;
         for (int i = 0; i < 1500; ++i) lines += "line \\n";
         return lines;
       }(),
       "unterminated string at byte 10511"},
      {"lone high surrogate after a long run",
       "\"" + run_of(100) + "\\uD83D\"",
       "lone high surrogate in \\u escape at byte 107"},
      {"lone low surrogate after a long run",
       "\"" + run_of(100) + "\\uDE00\"",
       "lone low surrogate in \\u escape at byte 107"},
      {"high surrogate then a non-low escape after a long run",
       "\"" + run_of(100) + "\\uD83D\\u0041\"",
       "high surrogate not followed by a low surrogate at byte 113"},
      {"truncated \\u escape after a long run",
       "\"" + run_of(100) + "\\u12",
       "truncated \\u escape at byte 103"},
      {"unknown escape after a long run", "\"" + run_of(100) + "\\x\"",
       "unknown escape sequence at byte 103"},
  };
}

TEST(JsonParse, MalformedDocumentsKeepTheirErrorAndOffset) {
  for (const Malformed& m : malformed_table()) {
    std::string err;
    EXPECT_FALSE(parse_json(m.doc, &err).has_value()) << m.name;
    EXPECT_EQ(err, m.error) << m.name;
  }
}

TEST(JsonParse, FaultAtEveryOffsetOfARunIsFound) {
  // One stop byte at each offset of a 40-byte run, across three words.
  for (std::size_t at = 0; at < 40; ++at) {
    std::string body = run_of(40);
    body[at] = '\x1f';
    std::string err;
    EXPECT_FALSE(parse_json("\"" + body + "\"", &err).has_value()) << at;
    EXPECT_EQ(err, "unescaped control character in string at byte " +
                       std::to_string(at + 2));
    body[at] = '"';
    err.clear();
    EXPECT_FALSE(parse_json("\"" + body + "\"", &err).has_value()) << at;
    EXPECT_EQ(err, "trailing characters after JSON document at byte " +
                       std::to_string(at + 2));
    body[at] = 'b';
    const auto v = parse_json("\"" + body + "\"");
    ASSERT_TRUE(v.has_value()) << at;
    EXPECT_EQ(v->as_string(), body);
  }
}

TEST(JsonParse, DuplicateKeyIsAcceptedAndTheLastValueWins) {
  const auto v = parse_json(R"({"a": 1, "b": "x", "a": 2})");
  ASSERT_TRUE(v && v->is_object());
  EXPECT_EQ(v->as_object().size(), 2u);
  EXPECT_EQ(v->get("a")->as_int(), 2);
}

TEST(JsonValue, TakeStringMovesTheStringOut) {
  auto v = parse_json(R"({"model": "text", "n": 1})");
  ASSERT_TRUE(v);
  EXPECT_EQ(v->get("model")->take_string(), "text");
  EXPECT_EQ(v->get("model")->as_string(), "");
  EXPECT_EQ(v->get("n")->take_string(), "");
  EXPECT_EQ(v->get("n")->as_int(), 1);
}

TEST(JsonWriter, LongStringsRoundTripWithEscapesAtRunBoundaries) {
  // Escaped and multibyte characters at word and run edges, in strings up
  // to 64 KiB: the writer's output parses back to the same bytes.
  const std::string specials[] = {"\"", "\\", "\n", "\x01", "\x1f", "\t",
                                  "\xc3\xa9", "\x7f", "/"};
  for (const std::size_t size :
       {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 64u, 4096u, 65535u, 65536u}) {
    for (std::size_t k = 0; k < std::size(specials); ++k) {
      std::string s = run_of(size);
      // A special at each end and every 8 + k bytes in between.
      for (std::size_t at = 0; at < size; at += 8 + k)
        s.replace(at, 1, specials[(at + k) % std::size(specials)]);
      if (!s.empty()) s.back() = '\n';
      JsonWriter w;
      w.begin_object();
      w.key(s).value(s);
      w.end_object();
      const auto v = parse_json(w.str());
      ASSERT_TRUE(v && v->is_object()) << size << "/" << k;
      ASSERT_NE(v->get(s), nullptr) << size << "/" << k;
      EXPECT_EQ(v->get(s)->as_string(), s) << size << "/" << k;
    }
  }
}

TEST(JsonParse, DepthLimited) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  std::string err;
  EXPECT_FALSE(parse_json(deep, &err));
  EXPECT_NE(err.find("too deep"), std::string::npos) << err;
}

TEST(JsonWriter, CommasAndNesting) {
  JsonWriter w;
  w.begin_object();
  w.key("a").value(1);
  w.key("b").begin_array();
  w.value("x").value(true).null();
  w.end_array();
  w.key("c").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"a\": 1, \"b\": [\"x\", true, null], \"c\": {}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_object();
  w.key("k").value("a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(std::move(w).str(), "{\"k\": \"a\\\"b\\\\c\\nd\"}");
}

TEST(JsonWriter, RawSplicesVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("n").value(std::uint64_t{1});
  w.key("result").raw(R"({"outcome": "schedulable"})");
  w.end_object();
  EXPECT_EQ(std::move(w).str(),
            "{\"n\": 1, \"result\": {\"outcome\": \"schedulable\"}}");
}

TEST(JsonWriter, OutputReparses) {
  JsonWriter w;
  w.begin_object();
  w.key("pi").value(3.25);
  w.key("big").value(std::uint64_t{9'000'000'000ull});
  w.key("neg").value(std::int64_t{-12});
  w.end_object();
  const auto v = parse_json(w.str());
  ASSERT_TRUE(v);
  EXPECT_DOUBLE_EQ(v->get("pi")->as_double(), 3.25);
  EXPECT_EQ(v->get("big")->as_int(), 9'000'000'000ll);
  EXPECT_EQ(v->get("neg")->as_int(), -12);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> c(2);
  c.put(1, "one");
  c.put(2, "two");
  EXPECT_EQ(c.get(1), "one");  // promotes 1; 2 is now LRU
  c.put(3, "three");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.evictions(), 1u);
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(1));
  EXPECT_TRUE(c.contains(3));
}

TEST(LruCacheTest, PutOverwritesAndPromotes) {
  LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  c.put(1, 11);  // overwrite promotes; 2 becomes LRU
  c.put(3, 30);
  EXPECT_FALSE(c.contains(2));
  EXPECT_EQ(c.get(1), 11);
}

TEST(LruCacheTest, PeekDoesNotPromote) {
  LruCache<int, int> c(2);
  c.put(1, 10);
  c.put(2, 20);
  ASSERT_NE(c.peek(1), nullptr);  // no recency update: 1 stays LRU
  c.put(3, 30);
  EXPECT_FALSE(c.contains(1));
  EXPECT_TRUE(c.contains(2));
}

TEST(LruCacheTest, ZeroCapacityIsDisabled) {
  LruCache<int, int> c(0);
  c.put(1, 10);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.get(1).has_value());
  EXPECT_EQ(c.evictions(), 0u);
}

}  // namespace
