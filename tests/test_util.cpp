// Unit tests for the util support library.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/chunked_vector.hpp"
#include "util/diagnostics.hpp"
#include "util/flat_set.hpp"
#include "util/hash.hpp"
#include "util/interner.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace u = aadlsched::util;

TEST(Interner, EmptyStringIsSymbolZero) {
  u::Interner in;
  EXPECT_EQ(in.intern(""), 0u);
  EXPECT_EQ(in.str(0), "");
}

TEST(Interner, InterningIsIdempotent) {
  u::Interner in;
  const auto a = in.intern("cpu");
  const auto b = in.intern("bus");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.intern("cpu"), a);
  EXPECT_EQ(in.str(a), "cpu");
  EXPECT_EQ(in.str(b), "bus");
}

TEST(Interner, LookupDoesNotIntern) {
  u::Interner in;
  u::Symbol s = 99;
  EXPECT_FALSE(in.lookup("ghost", s));
  const std::size_t before = in.size();
  EXPECT_EQ(in.size(), before);
  in.intern("ghost");
  EXPECT_TRUE(in.lookup("ghost", s));
}

TEST(Interner, SurvivesRehashes) {
  u::Interner in;
  std::vector<u::Symbol> syms;
  for (int i = 0; i < 10000; ++i)
    syms.push_back(in.intern("sym_" + std::to_string(i)));
  for (int i = 0; i < 10000; ++i)
    EXPECT_EQ(in.str(syms[static_cast<std::size_t>(i)]),
              "sym_" + std::to_string(i));
}

TEST(Hash, MixDecorrelatesSmallIntegers) {
  std::set<std::uint64_t> hs;
  for (std::uint64_t i = 0; i < 1000; ++i) hs.insert(u::mix64(i));
  EXPECT_EQ(hs.size(), 1000u);
}

TEST(Hash, CombineIsOrderSensitive) {
  const auto a = u::hash_combine(u::hash_combine(0, 1), 2);
  const auto b = u::hash_combine(u::hash_combine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a 64-bit of "a" is a published constant.
  EXPECT_EQ(u::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, Fnv1a128IsTwoSeededFnv1aLanes) {
  const std::string bytes("with\0nul\xff", 9);
  for (const std::string_view s :
       {std::string_view(""), std::string_view("a"),
        std::string_view("package Tiny\npublic\nend Tiny;\n"),
        std::string_view(bytes)}) {
    const u::Hash128 h = u::fnv1a_128(s);
    EXPECT_EQ(h.hi, u::fnv1a(s)) << s;
    EXPECT_EQ(h.lo, u::fnv1a(s, 0x9ae16a3b2f90404fULL)) << s;
  }
  // Chaining through `seed` hashes the concatenation.
  EXPECT_EQ(u::fnv1a_128("def", u::fnv1a_128("abc")), u::fnv1a_128("abcdef"));
}

TEST(Numeric, Gcd) {
  EXPECT_EQ(u::gcd64(12, 18), 6);
  EXPECT_EQ(u::gcd64(7, 13), 1);
  EXPECT_EQ(u::gcd64(0, 5), 5);
  EXPECT_EQ(u::gcd64(-12, 18), 6);
}

TEST(Numeric, CheckedLcm) {
  EXPECT_EQ(u::checked_lcm(4, 6).value(), 12);
  EXPECT_EQ(u::checked_lcm(0, 6).value(), 0);
  EXPECT_FALSE(u::checked_lcm(std::int64_t{1} << 62, 3).has_value());
}

TEST(Numeric, Hyperperiod) {
  const std::int64_t ps[] = {10, 20, 40};
  EXPECT_EQ(u::hyperperiod(ps).value(), 40);
  const std::int64_t qs[] = {5, 7, 3};
  EXPECT_EQ(u::hyperperiod(qs).value(), 105);
  EXPECT_FALSE(u::hyperperiod({}).has_value());
}

TEST(Numeric, CeilDiv) {
  EXPECT_EQ(u::ceil_div(10, 3), 4);
  EXPECT_EQ(u::ceil_div(9, 3), 3);
  EXPECT_EQ(u::ceil_div(1, 5), 1);
  EXPECT_EQ(u::ceil_div(0, 5), 0);
}

TEST(Rng, Deterministic) {
  u::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInRange) {
  u::Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    const auto v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Strings, ToLowerAndIequals) {
  EXPECT_EQ(u::to_lower("Dispatch_Protocol"), "dispatch_protocol");
  EXPECT_TRUE(u::iequals("Periodic", "PERIODIC"));
  EXPECT_FALSE(u::iequals("Periodic", "Sporadic"));
  EXPECT_FALSE(u::iequals("abc", "abcd"));
}

TEST(Strings, SplitJoin) {
  const auto parts = u::split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(u::join({"x", "y", "z"}, "::"), "x::y::z");
  EXPECT_EQ(u::join({}, "::"), "");
}

TEST(Strings, PadRight) {
  EXPECT_EQ(u::pad_right("ab", 5), "ab   ");
  EXPECT_EQ(u::pad_right("abcdef", 3), "abcdef");
}

TEST(Diagnostics, CountsAndRenders) {
  u::DiagnosticEngine de("model.aadl");
  de.warning({1, 2}, "odd");
  de.error({3, 4}, "bad");
  EXPECT_TRUE(de.has_errors());
  EXPECT_EQ(de.error_count(), 1u);
  const std::string all = de.render_all();
  EXPECT_NE(all.find("model.aadl:3:4: error: bad"), std::string::npos);
  EXPECT_NE(all.find("model.aadl:1:2: warning: odd"), std::string::npos);
}

TEST(Diagnostics, InvalidLocOmitted) {
  u::DiagnosticEngine de("x");
  de.error({}, "no loc");
  EXPECT_EQ(de.render_all(), "x: error: no loc\n");
}

TEST(ChunkedVector, StableAddressesAcrossGrowth) {
  u::ChunkedVector<int, 4> v;  // chunks of 16
  EXPECT_EQ(v.push_back(7), 0u);
  std::vector<const int*> chunk_starts{&v[0]};
  for (int i = 1; i < 16 * 150; ++i) {
    EXPECT_EQ(v.push_back(i), static_cast<std::size_t>(i));
    if (i % 16 == 0) chunk_starts.push_back(&v[static_cast<std::size_t>(i)]);
  }
  // The spine grew past 100 chunks; no element moved.
  for (std::size_t c = 0; c < chunk_starts.size(); ++c)
    EXPECT_EQ(chunk_starts[c], &v[c * 16])
        << "growth must not move existing elements (chunk " << c << ")";
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[2399], 2399);
  EXPECT_EQ(v.size(), 2400u);
}

TEST(ChunkedVector, AppendSpanNeverStraddlesChunks) {
  u::ChunkedVector<std::uint32_t, 4> v;  // chunks of 16
  const std::uint32_t a[13] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const std::size_t s1 = v.append_span(std::span<const std::uint32_t>(a, 13));
  // 13 more do not fit in the 3 remaining slots: must pad to chunk 2.
  const std::size_t s2 = v.append_span(std::span<const std::uint32_t>(a, 13));
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 16u);
  const auto view2 = v.view(s2, 13);
  EXPECT_TRUE(std::equal(view2.begin(), view2.end(), a));
  // Empty span: no write, any start is fine, view is empty.
  const std::size_t s3 = v.append_span({});
  EXPECT_TRUE(v.view(s3, 0).empty());
}

TEST(ChunkedVector, SmallCapacityThrowsAtItsCap) {
  u::ChunkedVector<int, 2, 3> v;  // 3 chunks of 4: 12 elements
  for (int i = 0; i < 12; ++i) v.push_back(i);
  EXPECT_THROW(v.push_back(12), std::length_error);
  EXPECT_EQ(v.size(), 12u);
  EXPECT_EQ(v[11], 11);
  const int two[2] = {1, 2};
  EXPECT_THROW(v.append_span(std::span<const int>(two, 2)), std::length_error);
}

TEST(ParseInt64, AcceptsWellFormedIntegers) {
  EXPECT_EQ(u::parse_int64("0"), 0);
  EXPECT_EQ(u::parse_int64("42"), 42);
  EXPECT_EQ(u::parse_int64("+42"), 42);
  EXPECT_EQ(u::parse_int64("-7"), -7);
  EXPECT_EQ(u::parse_int64("007"), 7);
  EXPECT_EQ(u::parse_int64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(ParseInt64, RejectsGarbageAndPartialMatches) {
  // std::atoll accepted every one of these (the CLI regression this
  // replaces).
  for (const char* bad : {"", "+", "-", "x", "2x", "x2", "4 2", " 42", "42 ",
                          "--4", "+-4", "1e3", "0x10"})
    EXPECT_FALSE(u::parse_int64(bad).has_value()) << '"' << bad << '"';
}

TEST(ParseInt64, RejectsOverflow) {
  EXPECT_FALSE(u::parse_int64("9223372036854775808").has_value());
  EXPECT_FALSE(u::parse_int64("99999999999999999999").has_value());
  // INT64_MIN is rejected by design (no CLI option needs it).
  EXPECT_FALSE(u::parse_int64("-9223372036854775808").has_value());
  EXPECT_EQ(u::parse_int64("-9223372036854775807"),
            std::numeric_limits<std::int64_t>::min() + 1);
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(u::json_escape("processor 'cpu' U = 1.5"),
            "processor 'cpu' U = 1.5");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(u::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(u::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(u::json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(u::json_escape("\t\r\b\f"), "\\t\\r\\b\\f");
  EXPECT_EQ(u::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(u::json_escape(std::string(1, '\x1f')), "\\u001f");
}

// find_or_insert() is find() then insert() in one probe. Keys live in the
// caller's vector, as in the hash-cons tables; hashes mod 5 collide often.
TEST(FlatHashIndex, FindOrInsertReturnsTheHitOrInsertsOnce) {
  std::vector<std::uint64_t> keys;
  u::FlatHashIndex index;
  const auto intern = [&](std::uint64_t key) {
    return index.find_or_insert(
        key % 5, [&](std::uint32_t id) { return keys[id] == key; },
        [&] {
          keys.push_back(key);
          return static_cast<std::uint32_t>(keys.size() - 1);
        });
  };
  EXPECT_EQ(intern(10), 0u);
  EXPECT_EQ(intern(15), 1u);  // same hash, different key: a miss
  EXPECT_EQ(intern(10), 0u);  // the hit; make() is not called
  EXPECT_EQ(intern(15), 1u);
  EXPECT_EQ(keys.size(), 2u);
  for (std::uint64_t k = 0; k < 200; ++k) intern(k * 3);
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint32_t id = index.find(
        k * 3 % 5, [&](std::uint32_t i) { return keys[i] == k * 3; });
    ASSERT_NE(id, u::kFlatEmptySlot);
    EXPECT_EQ(keys[id], k * 3);
  }
  // 0, 3, ..., 597 less the 15 already there.
  EXPECT_EQ(keys.size(), 201u);
  EXPECT_EQ(intern(10), 0u);
}

// A hit never grows the index, even when one more entry would: before
// each miss, the previous id is looked up again.
TEST(FlatHashIndex, FindOrInsertGrowsAtTheLoadOfInsert) {
  u::FlatHashIndex probed;  // find() then insert()
  u::FlatHashIndex once;    // find_or_insert()
  const auto unexpected = []() -> std::uint32_t {
    ADD_FAILURE() << "make() called on a hit";
    return 0;
  };
  for (std::uint32_t id = 0; id < 3000; ++id) {
    const std::uint64_t h = u::mix64(id);
    const auto eq = [&](std::uint32_t i) { return i == id; };
    if (id > 0) {
      const auto prev = [&](std::uint32_t i) { return i == id - 1; };
      ASSERT_EQ(once.find_or_insert(u::mix64(id - 1), prev, unexpected),
                id - 1);
      ASSERT_EQ(probed.approx_bytes(), once.approx_bytes()) << "id " << id;
    }
    ASSERT_EQ(probed.find(h, eq), u::kFlatEmptySlot);
    probed.insert(h, id);
    ASSERT_EQ(once.find_or_insert(h, eq, [&] { return id; }), id);
    ASSERT_EQ(probed.approx_bytes(), once.approx_bytes()) << "id " << id;
  }
  for (std::uint32_t id = 0; id < 3000; ++id)
    EXPECT_EQ(once.find(u::mix64(id), [&](std::uint32_t i) { return i == id; }),
              id);
}

TEST(FlatHashIndex, FindOrInsertWhoseMakeThrowsInsertsNothing) {
  u::FlatHashIndex index;
  const auto eq = [](std::uint32_t i) { return i == 7; };
  const auto refuse = []() -> std::uint32_t {
    throw std::length_error("table full");
  };
  EXPECT_THROW(index.find_or_insert(42, eq, refuse), std::length_error);
  EXPECT_EQ(index.find(42, eq), u::kFlatEmptySlot);
  EXPECT_EQ(index.find_or_insert(42, eq, [] { return 7u; }), 7u);
  EXPECT_EQ(index.find(42, eq), 7u);
}
