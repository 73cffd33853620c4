#include "util/interner.hpp"

namespace aadlsched::util {

Interner::Interner() { intern(""); }

Symbol Interner::intern(std::string_view s) {
  if (auto it = index_.find(s); it != index_.end()) return it->second;
  const Symbol id = static_cast<Symbol>(storage_.size());
  storage_.emplace_back(s);
  index_.emplace(std::string_view{storage_.back()}, id);
  return id;
}

bool Interner::lookup(std::string_view s, Symbol& out) const {
  auto it = index_.find(s);
  if (it == index_.end()) return false;
  out = it->second;
  return true;
}

}  // namespace aadlsched::util
