// util::SpanTable, the hash-cons under actions, event sets, shape keys and
// explored states: dense first-intern ids, equal spans sharing an id,
// spans that never move, lookups that never insert, the empty span, and
// the refusal of a span longer than one arena chunk. Tiny chunks make the
// chunk boundaries show on a few values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/span_table.hpp"

namespace {

using aadlsched::util::kFlatEmptySlot;
using aadlsched::util::SpanTable;

// Four values per arena chunk, two entries per entry chunk.
using Tiny = SpanTable<std::uint32_t, 2, 1>;

std::vector<std::uint32_t> copy(std::span<const std::uint32_t> s) {
  return {s.begin(), s.end()};
}

TEST(SpanTable, IdsAreDenseInFirstInternOrder) {
  Tiny t;
  const std::vector<std::vector<std::uint32_t>> spans = {
      {3, 1}, {7}, {1, 3}, {2, 2, 2}, {9, 8, 7, 6}};
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(t.intern(spans[i]), i);
    EXPECT_EQ(t.size(), i + 1);
  }
  for (std::uint32_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(copy(t[i]), spans[i]) << "id " << i;
}

TEST(SpanTable, EqualSpansGetEqualIds) {
  Tiny t;
  const std::vector<std::uint32_t> a = {4, 5, 6};
  const std::uint32_t id = t.intern(a);
  t.intern(std::vector<std::uint32_t>{4, 5});
  t.intern(std::vector<std::uint32_t>{4, 5, 6, 7});
  // An equal span from other storage finds the first id; nothing is added.
  const std::vector<std::uint32_t> again = a;
  EXPECT_EQ(t.intern(again), id);
  EXPECT_EQ(t.size(), 3u);

  // 8-byte values compare and hash all their bits.
  SpanTable<std::uint64_t, 2, 1> wide;
  const std::vector<std::uint64_t> hi = {std::uint64_t{1} << 40};
  const std::vector<std::uint64_t> lo = {1};
  EXPECT_EQ(wide.intern(hi), 0u);
  EXPECT_EQ(wide.intern(lo), 1u);
  EXPECT_EQ(wide.intern(std::vector<std::uint64_t>{std::uint64_t{1} << 40}),
            0u);
}

TEST(SpanTable, SpansStayPutWhileTheTableGrowsAcrossChunks) {
  Tiny t;
  const std::vector<std::uint32_t> first = {10, 11, 12};
  const std::span<const std::uint32_t> held = t[t.intern(first)];
  const std::uint32_t* at = held.data();
  // 3 + 3 values do not share a 4-value chunk: the second span starts the
  // next chunk rather than straddling the boundary.
  const std::span<const std::uint32_t> next =
      t[t.intern(std::vector<std::uint32_t>{20, 21, 22})];
  EXPECT_NE(next.data(), at + 3);
  for (std::uint32_t i = 0; i < 1000; ++i)
    t.intern(std::vector<std::uint32_t>{i, i + 1, i % 7});
  EXPECT_EQ(t[0].data(), at);
  EXPECT_EQ(copy(held), first);
  EXPECT_EQ(copy(next), (std::vector<std::uint32_t>{20, 21, 22}));
  for (std::uint32_t i = 0; i < 1000; ++i)
    ASSERT_EQ(copy(t[i + 2]), (std::vector<std::uint32_t>{i, i + 1, i % 7}));
}

TEST(SpanTable, FindMissesWithoutInserting) {
  Tiny t;
  const std::vector<std::uint32_t> a = {1, 2};
  const std::vector<std::uint32_t> b = {2, 1};
  EXPECT_EQ(t.find(a), kFlatEmptySlot);
  EXPECT_EQ(t.size(), 0u);
  const std::uint32_t id = t.intern(a);
  EXPECT_EQ(t.find(a), id);
  EXPECT_EQ(t.find(b), kFlatEmptySlot);  // order matters
  EXPECT_EQ(t.size(), 1u);
}

TEST(SpanTable, TheEmptySpanIsAnEntryLikeAnyOther) {
  Tiny t;
  EXPECT_EQ(t.find({}), kFlatEmptySlot);
  t.intern(std::vector<std::uint32_t>{5});
  const std::uint32_t empty = t.intern({});
  EXPECT_EQ(empty, 1u);
  EXPECT_TRUE(t[empty].empty());
  EXPECT_EQ(t.intern({}), empty);
  EXPECT_EQ(t.find({}), empty);
  EXPECT_EQ(copy(t[0]), std::vector<std::uint32_t>{5});
}

TEST(SpanTable, ASpanLongerThanAChunkIsRefused) {
  Tiny t;
  static_assert(Tiny::kMaxSpan == 4);
  const std::vector<std::uint32_t> full = {1, 2, 3, 4};
  const std::vector<std::uint32_t> over = {1, 2, 3, 4, 5};
  EXPECT_EQ(t.intern(full), 0u);
  EXPECT_THROW(t.intern(over), std::length_error);
  EXPECT_EQ(t.find(over), kFlatEmptySlot);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.intern(std::vector<std::uint32_t>{6}), 1u);
}

}  // namespace
