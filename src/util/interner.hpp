// String interner: maps strings to dense 32-bit symbols and back.
//
// All names that flow through the pipeline (AADL component paths, ACSR event
// labels, resource names) are interned once so that the hot exploration loop
// compares and hashes u32 ids instead of strings.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace aadlsched::util {

/// Dense symbol id. Value 0 is reserved for the empty string, which is
/// always pre-interned, so a default-constructed Symbol is valid.
using Symbol = std::uint32_t;

class Interner {
 public:
  Interner();

  /// Intern a string; returns the existing symbol when already present.
  Symbol intern(std::string_view s);

  /// Look up without interning. Returns false when the string is unknown.
  bool lookup(std::string_view s, Symbol& out) const;

  /// Resolve a symbol back to its string. The reference stays valid for the
  /// lifetime of the interner (storage is a deque; never reallocated).
  const std::string& str(Symbol s) const { return storage_.at(s); }

  std::size_t size() const { return storage_.size(); }

 private:
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, Symbol> index_;
};

}  // namespace aadlsched::util
