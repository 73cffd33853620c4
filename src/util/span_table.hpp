// Hash-consed spans with dense ids: the one table under the timed actions
// and event sets (acsr/action.hpp), the Semantics' shape keys and the
// explorer's state rows. Spans of a 4- or 8-byte trivially copyable T are
// appended to one ChunkedVector arena without straddling a chunk, so a
// span never moves once interned and the table frees in bulk; each id owns
// one (offset, length) entry and a FlatHashIndex slot. Equal spans (bit
// for bit) get equal ids, dense in first-intern order. A span longer than
// one chunk (kMaxSpan) is refused: intern() throws std::length_error and
// find() misses, so a caller that can do without it checks first. Terms,
// expressions, names and signatures live elsewhere (DESIGN.md §13).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "util/chunked_vector.hpp"
#include "util/flat_set.hpp"
#include "util/hash.hpp"

namespace aadlsched::util {

template <typename T, std::size_t ChunkLog = 12, std::size_t EntryLog = 10>
class SpanTable {
  static_assert(std::is_trivially_copyable_v<T> &&
                    (sizeof(T) == 4 || sizeof(T) == 8),
                "SpanTable hashes and compares spans of 4- or 8-byte values");
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;

  // Enough chunks for 2^32 values and 2^32 entries: offsets and ids are u32.
  using Arena =
      ChunkedVector<T, ChunkLog, ((std::size_t{1} << 32) >> ChunkLog)>;
  struct Entry {
    std::uint32_t at;
    std::uint32_t len;
  };
  using Entries =
      ChunkedVector<Entry, EntryLog, ((std::size_t{1} << 32) >> EntryLog)>;

 public:
  /// Longest span the table takes: one arena chunk.
  static constexpr std::size_t kMaxSpan = Arena::kChunkSize;

  /// The id of the span equal to `xs`, or kFlatEmptySlot. Never inserts.
  std::uint32_t find(std::span<const T> xs) const {
    if (xs.size() > kMaxSpan) return kFlatEmptySlot;
    return index_.find(hash(xs),
                       [&](std::uint32_t id) { return equal(id, xs); });
  }

  /// The id of the span equal to `xs`, appending a copy under the next id
  /// when there is none. Throws std::length_error when `xs` is longer than
  /// kMaxSpan or the ids are exhausted.
  std::uint32_t intern(std::span<const T> xs) {
    if (xs.size() > kMaxSpan || size() == kFlatEmptySlot)
      throw std::length_error("SpanTable: span too long or ids exhausted");
    return index_.find_or_insert(
        hash(xs), [&](std::uint32_t id) { return equal(id, xs); },
        [&] {
          const auto at = static_cast<std::uint32_t>(data_.append_span(xs));
          const auto len = static_cast<std::uint32_t>(xs.size());
          return static_cast<std::uint32_t>(entries_.push_back(Entry{at, len}));
        });
  }

  /// The span interned under `id`; valid for the table's lifetime.
  std::span<const T> operator[](std::uint32_t id) const {
    const Entry& e = entries_[id];
    return data_.view(e.at, e.len);
  }

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(entries_.size());
  }

  /// Values, entries and index, for the memory-budget estimate.
  std::size_t approx_bytes() const {
    return data_.size() * sizeof(T) + entries_.size() * sizeof(Entry) +
           index_.approx_bytes();
  }

 private:
  static Bits bits(const T& x) { return std::bit_cast<Bits>(x); }

  static std::uint64_t hash(std::span<const T> xs) {
    std::uint64_t h = 0x5851f42d4c957f2dULL;
    for (const T& x : xs) h = hash_combine(h, bits(x));
    return h;
  }

  bool equal(std::uint32_t id, std::span<const T> xs) const {
    const std::span<const T> s = (*this)[id];
    return std::equal(s.begin(), s.end(), xs.begin(), xs.end(),
                      [](T x, T y) { return bits(x) == bits(y); });
  }

  Arena data_;
  Entries entries_;
  FlatHashIndex index_;
};

}  // namespace aadlsched::util
