// Append-only storage with stable element addresses.
//
// The hash-cons tables of the ACSR core are append-only: once an id is
// handed out, the entry behind it is immutable. Stable addresses are part
// of their contract: a reference or span a single-threaded caller got from
// TermTable::node/payload or ActionTable::uses stays valid while that
// caller goes on interning. A std::vector backing store would reallocate
// on growth and leave such a reference dangling. ChunkedVector stores
// elements in fixed-size chunks that never move; only the spine of chunk
// pointers grows, one chunk at a time as elements arrive, so an empty
// vector allocates nothing and an element's address never changes once
// written. The spine is not safe for concurrent readers while a writer
// grows it: the tables are single-threaded.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace aadlsched::util {

template <typename T, std::size_t ChunkLog = 12, std::size_t MaxChunks = 1u << 15>
class ChunkedVector {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkLog;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) {
    return spine_[i >> ChunkLog][i & kChunkMask];
  }
  const T& operator[](std::size_t i) const {
    return spine_[i >> ChunkLog][i & kChunkMask];
  }

  /// Append one element; returns its index.
  std::size_t push_back(T v) {
    const std::size_t i = size_;
    ensure_chunk(i);
    (*this)[i] = std::move(v);
    size_ = i + 1;
    return i;
  }

  /// Append `xs` contiguously (never straddling a chunk boundary, padding
  /// the current chunk when they do not fit); returns the start index.
  /// Requires xs.size() <= kChunkSize.
  std::size_t append_span(std::span<const T> xs) {
    if (xs.size() > kChunkSize)
      throw std::length_error("ChunkedVector::append_span: span too large");
    std::size_t start = size_;
    if ((start & kChunkMask) + xs.size() > kChunkSize)
      start = (start & ~kChunkMask) + kChunkSize;  // pad to next chunk
    if (!xs.empty()) {
      ensure_chunk(start);
      std::copy(xs.begin(), xs.end(), &(*this)[start]);
      size_ = start + xs.size();
    }
    return start;
  }

  /// View of a contiguous run produced by append_span.
  std::span<const T> view(std::size_t start, std::size_t len) const {
    if (len == 0) return {};
    return {&(*this)[start], len};
  }

 private:
  void ensure_chunk(std::size_t i) {
    const std::size_t c = i >> ChunkLog;
    if (c >= MaxChunks)
      throw std::length_error("ChunkedVector: capacity exhausted");
    if (c >= spine_.size()) spine_.resize(c + 1);
    // Left uninitialized: every slot is written before it is read, and
    // pages a chunk never uses are never touched.
    if (!spine_[c])
      spine_[c] = std::make_unique_for_overwrite<T[]>(kChunkSize);
  }

  std::vector<std::unique_ptr<T[]>> spine_;
  std::size_t size_ = 0;
};

}  // namespace aadlsched::util
