// Open-addressing hash containers over dense 32-bit ids.
//
// The exploration wavefront keys everything by acsr::TermId (a uint32), and
// the node-based std::unordered_map it used to sit in costs ~48-64 bytes of
// heap per entry plus a pointer chase per probe. These flat tables pack the
// same data into contiguous power-of-two arrays: one u32 slot per key for
// the set, parallel key/value arrays (SoA) for the map, (id, hash tag)
// slots for the hash-cons index. Linear probing with a strong 64-bit mix
// keeps clusters short at the 0.7 max load factor.
//
// All three reserve 0xFFFFFFFF as the empty-slot sentinel; callers never
// insert it (it is acsr::kInvalidTerm, which is not a state). None supports
// erase — the visited set, parent map and hash-cons tables only grow, which
// is what makes tombstone-free linear probing safe.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace aadlsched::util {

inline constexpr std::uint32_t kFlatEmptySlot = 0xFFFFFFFFu;

namespace detail {

inline std::size_t flat_capacity_for(std::size_t n) {
  // Smallest power of two that keeps n entries under 0.7 load.
  std::size_t cap = 16;
  while (cap * 7 < n * 10) cap <<= 1;
  return cap;
}

}  // namespace detail

/// Append-only set of 32-bit ids. insert() returns true when the id was
/// newly added — the same contract as unordered_map::emplace().second the
/// explorer relied on.
class FlatIdSet {
 public:
  FlatIdSet() { rehash(16); }

  void reserve(std::size_t n) {
    const std::size_t want = detail::flat_capacity_for(n);
    if (want > slots_.size()) rehash(want);
  }

  bool insert(std::uint32_t key) {
    assert(key != kFlatEmptySlot);
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = slots_[i];
      if (slot == key) return false;
      if (slot == kFlatEmptySlot) {
        slots_[i] = key;
        ++size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint32_t key) const {
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = slots_[i];
      if (slot == key) return true;
      if (slot == kFlatEmptySlot) return false;
      i = (i + 1) & mask_;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), kFlatEmptySlot);
    size_ = 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const std::uint32_t slot : slots_)
      if (slot != kFlatEmptySlot) f(slot);
  }

  /// Actual table footprint: one u32 per slot, no per-entry heap nodes.
  std::size_t approx_bytes() const {
    return slots_.size() * sizeof(std::uint32_t);
  }

 private:
  std::size_t probe_start(std::uint32_t key) const {
    return static_cast<std::size_t>(util::mix64(key)) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(new_cap, kFlatEmptySlot);
    mask_ = new_cap - 1;
    for (const std::uint32_t key : old) {
      if (key == kFlatEmptySlot) continue;
      std::size_t i = probe_start(key);
      while (slots_[i] != kFlatEmptySlot) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Append-only map from 32-bit id to V, stored as parallel arrays so a
/// probe touches only the key array until it hits.
template <typename V>
class FlatIdMap {
 public:
  FlatIdMap() { rehash(16); }

  void reserve(std::size_t n) {
    const std::size_t want = detail::flat_capacity_for(n);
    if (want > keys_.size()) rehash(want);
  }

  /// Insert (key, value) if the key is absent; returns true on insertion,
  /// false (leaving the existing value untouched) when already present.
  bool emplace(std::uint32_t key, V value) {
    assert(key != kFlatEmptySlot);
    if ((size_ + 1) * 10 > keys_.size() * 7) rehash(keys_.size() * 2);
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = keys_[i];
      if (slot == key) return false;
      if (slot == kFlatEmptySlot) {
        keys_[i] = key;
        values_[i] = std::move(value);
        ++size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
  }

  V* find(std::uint32_t key) {
    std::size_t i = probe_start(key);
    while (true) {
      const std::uint32_t slot = keys_[i];
      if (slot == key) return &values_[i];
      if (slot == kFlatEmptySlot) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  const V* find(std::uint32_t key) const {
    return const_cast<FlatIdMap*>(this)->find(key);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.assign(keys_.size(), kFlatEmptySlot);
    values_.assign(values_.size(), V{});
    size_ = 0;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kFlatEmptySlot) f(keys_[i], values_[i]);
  }

  std::size_t approx_bytes() const {
    return keys_.size() * (sizeof(std::uint32_t) + sizeof(V));
  }

 private:
  std::size_t probe_start(std::uint32_t key) const {
    return static_cast<std::size_t>(util::mix64(key)) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<std::uint32_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(new_cap, kFlatEmptySlot);
    values_.assign(new_cap, V{});
    mask_ = new_cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kFlatEmptySlot) continue;
      std::size_t j = probe_start(old_keys[i]);
      while (keys_[j] != kFlatEmptySlot) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<std::uint32_t> keys_;
  std::vector<V> values_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Append-only index for hash-consing tables whose keys live elsewhere (term
/// nodes, action and event-set entries): it maps a caller-computed 64-bit
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
    const std::uint32_t tag = tag_of(hash);
    for (std::size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kFlatEmptySlot) return kFlatEmptySlot;
      if (s.tag == tag && eq(s.id)) return s.id;
    }
  }

  /// Add `id` under `hash`; the caller has checked that no equal key is
  /// present (find() returned kFlatEmptySlot).
  void insert(std::uint64_t hash, std::uint32_t id) {
    assert(id != kFlatEmptySlot);
    if ((size_ + 1) * 10 > slots_.size() * 7) rehash(slots_.size() * 2);
    place(Slot{id, tag_of(hash)});
    ++size_;
  }

  std::size_t size() const { return size_; }

  std::size_t approx_bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  struct Slot {
    std::uint32_t id = kFlatEmptySlot;
    std::uint32_t tag = 0;
  };

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
