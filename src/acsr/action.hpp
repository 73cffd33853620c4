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

  /// combine() result when the two actions share a resource.
  static constexpr ActionId kOverlap = 0xFFFFFFFFu;

  /// Par3's pair step: the union of a and b when their resource sets are
  /// disjoint, kOverlap when they are not. The idle action short-circuits;
  /// any other union is interned exactly as intern(uses(a) ++ uses(b))
  /// would, so a repeat call returns the id the first one handed out.
  ActionId combine(ActionId a, ActionId b);

  /// The paper's preemption order on actions: a ≺ b iff every resource of a
  /// occurs in b with >= priority and some resource of b is strictly higher
  /// than in a (absent resources count as priority 0).
  bool preempts(ActionId a, ActionId b) const;  // true iff a ≺ b

  std::size_t size() const { return actions_.size(); }

  /// Approximate footprint (resource-use vectors + index), for the
  /// resource-governance memory estimate.
  std::size_t approx_bytes() const {
    return actions_.size() * (sizeof(std::vector<ResourceUse>) + 32) +
           index_.approx_bytes();
  }

 private:
  /// Canonicalize scratch_ in place and intern it.
  ActionId intern_scratch();
  util::ChunkedVector<std::vector<ResourceUse>, 8> actions_;
  util::FlatHashIndex index_;
  std::vector<ResourceUse> scratch_;
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
