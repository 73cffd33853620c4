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
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "acsr/ids.hpp"
#include "util/chunked_vector.hpp"

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
  /// meaningfully request the same resource twice in one step).
  ActionId intern(std::vector<ResourceUse> uses);

  const std::vector<ResourceUse>& uses(ActionId id) const {
    return actions_[id];
  }

  bool is_idle(ActionId id) const { return actions_[id].empty(); }

  /// Par3 side condition: resource sets are disjoint.
  bool disjoint(ActionId a, ActionId b) const;

  /// Union of two disjoint actions (sorted merge).
  ActionId merge(ActionId a, ActionId b);

  /// The paper's preemption order on actions: a ≺ b iff every resource of a
  /// occurs in b with >= priority and some resource of b is strictly higher
  /// than in a (absent resources count as priority 0).
  bool preempts(ActionId a, ActionId b) const;  // true iff a ≺ b

  std::size_t size() const { return actions_.size(); }

  /// Approximate footprint (resource-use vectors + index), for the
  /// resource-governance memory estimate.
  std::size_t approx_bytes() const {
    return actions_.size() * (sizeof(std::vector<ResourceUse>) + 64);
  }

 private:
  ActionId find_in_bucket(std::uint64_t h,
                          const std::vector<ResourceUse>& uses) const;

  util::ChunkedVector<std::vector<ResourceUse>, 8> actions_;
  std::unordered_map<std::uint64_t, std::vector<ActionId>> buckets_;
};

/// Interned sorted sets of event labels, for the restriction operator.
class EventSetTable {
 public:
  EventSetTable();

  EventSetId intern(std::vector<Event> events);
  const std::vector<Event>& events(EventSetId id) const { return sets_[id]; }
  bool contains(EventSetId id, Event e) const;
  std::size_t size() const { return sets_.size(); }

 private:
  EventSetId find_existing(std::uint64_t h,
                           const std::vector<Event>& events) const;

  util::ChunkedVector<std::vector<Event>, 8> sets_;
  std::unordered_map<std::uint64_t, std::vector<EventSetId>> index_;
};

}  // namespace aadlsched::acsr
