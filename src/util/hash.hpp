// Hashing helpers shared by the hash-consing tables in the ACSR core and the
// explorer's seen-set. All hashes are deterministic across runs so that state
// counts reported by benches are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace aadlsched::util {

/// 64-bit FNV-1a over an arbitrary byte range.
constexpr std::uint64_t fnv1a(std::span<const std::byte> bytes,
                              std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A 128-bit hash as two 64-bit lanes.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

/// Two FNV-1a lanes in one pass: `hi` is fnv1a(s) and `lo` is
/// fnv1a(s, 0x9ae16a3b2f90404f). FNV-1a streams, so passing an earlier
/// result as `seed` hashes the concatenation of both inputs.
constexpr Hash128 fnv1a_128(
    std::string_view s,
    Hash128 seed = {0xcbf29ce484222325ULL, 0x9ae16a3b2f90404fULL}) {
  std::uint64_t hi = seed.hi;
  std::uint64_t lo = seed.lo;
  for (char c : s) {
    const auto b = static_cast<std::uint8_t>(c);
    hi = (hi ^ b) * 0x100000001b3ULL;
    lo = (lo ^ b) * 0x100000001b3ULL;
  }
  return {hi, lo};
}

/// Appends `v` as 16 lowercase hex digits (what "%016llx" prints, without
/// the cost of printf).
inline void append_hex(std::string& out, std::uint64_t v) {
  char hex[16];
  for (int i = 15; i >= 0; --i, v >>= 4) hex[i] = "0123456789abcdef"[v & 0xf];
  out.append(hex, sizeof hex);
}

/// FNV-1a of `bytes` as 16 lowercase hex digits.
inline std::string hex_digest(std::string_view bytes) {
  std::string hex;
  append_hex(hex, fnv1a(bytes));
  return hex;
}

/// Seal `body` (which must end in '\n') with a trailing line
/// "digest <16 hex>\n" over every preceding byte. Checkpoints and the
/// daemon's disk cache entries share this seal.
inline void append_digest(std::string& body) {
  body += "digest " + hex_digest(body) + "\n";
}

/// The body of a sealed `text`, digest line removed; nullopt when the
/// digest line is absent or garbled, does not match, or is not the final
/// bytes.
inline std::optional<std::string_view> strip_trailing_digest(
    std::string_view text) {
  const std::size_t dpos = text.rfind("\ndigest ");
  if (dpos == std::string_view::npos) return std::nullopt;
  const std::string_view body = text.substr(0, dpos + 1);
  if (text.substr(dpos + 8) != hex_digest(body) + "\n") return std::nullopt;
  return body;
}

/// Strong 64-bit mixer (splitmix64 finalizer). Used to decorrelate ids that
/// are small consecutive integers before combining.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combine in the boost::hash_combine style, but 64-bit.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return seed ^ (mix64(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace aadlsched::util
