// Open-addressing hash index over dense 32-bit ids.
//
// The hash-cons tables (terms, expressions, every util::SpanTable: actions,
// event sets, shape keys, state rows) and the Semantics' signature memo
// keep their keys in their own flat storage and need only an index from a
// hash to the ids stored under it. A node-based std::unordered_map costs
// ~48-64 bytes of heap per entry plus a pointer chase per probe;
// FlatHashIndex packs one (id, hash tag) slot per entry into a contiguous
// power-of-two array. Linear probing keeps clusters short at the 0.7 max
// load factor.
//
// 0xFFFFFFFF is the empty-slot sentinel; callers never insert it. There is
// no erase — every table it indexes only grows, which is what makes
// tombstone-free linear probing safe.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace aadlsched::util {

inline constexpr std::uint32_t kFlatEmptySlot = 0xFFFFFFFFu;

/// Append-only index for hash-consing tables whose keys live elsewhere (term
/// nodes, SpanTable entries): it maps a caller-computed 64-bit
/// hash to the ids stored under it, and the caller decides equality. Each
/// slot keeps 32 bits of its id's hash next to the id, so a probe calls the
/// equality predicate only on a tag match and a rehash never calls back
/// into the owning table.
class FlatHashIndex {
 public:
  FlatHashIndex() { rehash(16); }

  /// The id under `hash` for which eq(id) holds, or kFlatEmptySlot.
  template <typename Eq>
  std::uint32_t find(std::uint64_t hash, Eq&& eq) const {
    return slots_[probe(tag_of(hash), eq)].id;
  }

  /// Add `id` under `hash`; the caller has checked that no equal key is
  /// present (find() returned kFlatEmptySlot).
  void insert(std::uint64_t hash, std::uint32_t id) {
    assert(id != kFlatEmptySlot);
    if (full()) rehash(slots_.size() * 2);
    place(Slot{id, tag_of(hash)});
    ++size_;
  }

  /// find() and insert() in one probe: the id under `hash` for which
  /// eq(id) holds; when there is none, make() appends the key to the
  /// owning table and returns its new id, which is added under `hash` and
  /// returned. The index grows at the same load as insert(), and a make()
  /// that throws leaves it unchanged.
  template <typename Eq, typename Make>
  std::uint32_t find_or_insert(std::uint64_t hash, Eq&& eq, Make&& make) {
    const std::uint32_t tag = tag_of(hash);
    const std::size_t i = probe(tag, eq);
    if (slots_[i].id != kFlatEmptySlot) return slots_[i].id;
    const std::uint32_t id = make();
    assert(id != kFlatEmptySlot);
    if (full()) {
      rehash(slots_.size() * 2);
      place(Slot{id, tag});
    } else {
      slots_[i] = Slot{id, tag};
    }
    ++size_;
    return id;
  }

  std::size_t approx_bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t id = kFlatEmptySlot;
    std::uint32_t tag = 0;
  };

  /// The slot holding the id under `tag` for which eq(id) holds, or the
  /// empty slot that ends its probe run.
  template <typename Eq>
  std::size_t probe(std::uint32_t tag, Eq& eq) const {
    std::size_t i = tag & mask_;
    for (; slots_[i].id != kFlatEmptySlot; i = (i + 1) & mask_)
      if (slots_[i].tag == tag && eq(slots_[i].id)) break;
    return i;
  }

  /// One more entry would pass the 0.7 max load factor.
  bool full() const { return (size_ + 1) * 10 > slots_.size() * 7; }

  static std::uint32_t tag_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  void place(Slot s) {
    std::size_t i = s.tag & mask_;
    while (slots_[i].id != kFlatEmptySlot) i = (i + 1) & mask_;
    slots_[i] = s;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    for (const Slot& s : old)
      if (s.id != kFlatEmptySlot) place(s);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aadlsched::util
