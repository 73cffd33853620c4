// Ground timed actions and event sets, both interned.
//
// A timed action is the paper's A = {(r1,p1), ..., (rn,pn)}: one scheduling
// quantum of simultaneous access to a set of resources at given priorities
// (§3). The empty action is the idling step. Actions are canonicalized
// (sorted by resource, unique resources) and interned so the preemption
// relation and the Par3 disjointness check run over small sorted arrays
// identified by a u32.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "acsr/ids.hpp"
#include "util/chunked_vector.hpp"
#include "util/flat_set.hpp"
#include "util/hash.hpp"

namespace aadlsched::acsr {

struct ResourceUse {
  Resource resource = 0;
  Priority priority = 0;

  friend bool operator==(const ResourceUse&, const ResourceUse&) = default;
  friend auto operator<=>(const ResourceUse&, const ResourceUse&) = default;
};

class ActionTable {
 public:
  ActionTable();

  /// Intern an action. The input is canonicalized: sorted by resource id;
  /// duplicate resources keep the highest priority (a process cannot
  /// meaningfully request the same resource twice in one step). The copy
  /// is canonicalized in a scratch buffer the table keeps, so interning an
  /// existing action allocates nothing.
  ActionId intern(std::span<const ResourceUse> uses);
  ActionId intern(std::initializer_list<ResourceUse> uses) {
    return intern(std::span<const ResourceUse>(uses.begin(), uses.size()));
  }

  const std::vector<ResourceUse>& uses(ActionId id) const {
    return actions_[id];
  }

  bool is_idle(ActionId id) const { return actions_[id].empty(); }

  /// combine() result when the two actions share a resource.
  static constexpr ActionId kOverlap = 0xFFFFFFFFu;

  /// Par3's pair step: the union of a and b when their resource sets are
  /// disjoint, kOverlap when they are not. The idle action short-circuits.
  /// Any other pair is memoized by (a, b): the first call interns the union
  /// exactly as intern(uses(a) ++ uses(b)) would, and every later call
  /// returns that id, so ids are handed out in the same order with or
  /// without the memo. A hit allocates nothing and touches no action.
  ActionId combine(ActionId a, ActionId b) {
    if (a == kIdleAction) return b;
    if (b == kIdleAction) return a;
    const std::uint64_t key = (std::uint64_t{a} << 32) | b;
    if (!pairs_.empty()) {
      for (std::size_t i = util::mix64(key) & pair_mask_;;
           i = (i + 1) & pair_mask_) {
        if (pairs_[i].key == key) return pairs_[i].result;
        if (pairs_[i].key == kNoPair) break;
      }
    }
    return combine_slow(a, b, key);
  }

  /// The paper's preemption order on actions: a ≺ b iff every resource of a
  /// occurs in b with >= priority and some resource of b is strictly higher
  /// than in a (absent resources count as priority 0).
  bool preempts(ActionId a, ActionId b) const;  // true iff a ≺ b

  std::size_t size() const { return actions_.size(); }

  /// Approximate footprint (resource-use vectors + index + combine()
  /// memo), for the resource-governance memory estimate.
  std::size_t approx_bytes() const {
    return actions_.size() * (sizeof(std::vector<ResourceUse>) + 32) +
           index_.approx_bytes() + pairs_.capacity() * sizeof(PairSlot);
  }

 private:
  /// Canonicalize scratch_ in place and intern it.
  ActionId intern_scratch();
  /// combine() on a pair the memo does not hold yet.
  ActionId combine_slow(ActionId a, ActionId b, std::uint64_t key);

  /// combine() memo slot: (a << 32 | b) and its result. Open addressing
  /// with linear probing; no ordered pair of real ids is all ones.
  static constexpr std::uint64_t kNoPair = ~std::uint64_t{0};
  struct PairSlot {
    std::uint64_t key = kNoPair;
    ActionId result = kOverlap;
  };

  util::ChunkedVector<std::vector<ResourceUse>, 8> actions_;
  util::FlatHashIndex index_;
  std::vector<ResourceUse> scratch_;
  // Empty until the first combine() of two non-idle actions, so a Context
  // that never folds allocates nothing for it.
  std::vector<PairSlot> pairs_;
  std::size_t pair_mask_ = 0;
  std::size_t pair_count_ = 0;
};

/// Interned sorted sets of event labels, for the restriction operator.
class EventSetTable {
 public:
  EventSetTable();

  /// Intern the set of `events` (sorted and deduplicated in a scratch
  /// buffer the table keeps).
  EventSetId intern(std::span<const Event> events);
  EventSetId intern(std::initializer_list<Event> events) {
    return intern(std::span<const Event>(events.begin(), events.size()));
  }
  const std::vector<Event>& events(EventSetId id) const { return sets_[id]; }
  bool contains(EventSetId id, Event e) const;
  std::size_t size() const { return sets_.size(); }

 private:
  util::ChunkedVector<std::vector<Event>, 8> sets_;
  util::FlatHashIndex index_;
  std::vector<Event> scratch_;
};

}  // namespace aadlsched::acsr
