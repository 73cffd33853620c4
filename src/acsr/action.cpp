#include "acsr/action.hpp"

#include <algorithm>

#include "util/hash.hpp"

namespace aadlsched::acsr {

namespace {

std::uint64_t hash_uses(std::span<const ResourceUse> uses) {
  std::uint64_t h = 0x9ae16a3b2f90404fULL;
  for (const ResourceUse& u : uses) {
    h = util::hash_combine(h, u.resource);
    h = util::hash_combine(h, static_cast<std::uint32_t>(u.priority));
  }
  return h;
}

std::uint64_t hash_events(std::span<const Event> es) {
  std::uint64_t h = 0xc3a5c85c97cb3127ULL;
  for (Event e : es) h = util::hash_combine(h, e);
  return h;
}

}  // namespace

ActionTable::ActionTable() {
  // ActionId 0: the empty (idling) action.
  actions_.push_back({});
  index_.insert(hash_uses(actions_[0]), kIdleAction);
}

ActionId ActionTable::intern(std::span<const ResourceUse> uses) {
  scratch_.assign(uses.begin(), uses.end());
  return intern_scratch();
}

ActionId ActionTable::intern_scratch() {
  std::vector<ResourceUse>& uses = scratch_;
  std::sort(uses.begin(), uses.end());
  // Collapse duplicate resources, keeping the highest priority.
  std::size_t w = 0;
  for (std::size_t r = 0; r < uses.size(); ++r) {
    if (w > 0 && uses[w - 1].resource == uses[r].resource) {
      uses[w - 1].priority = std::max(uses[w - 1].priority, uses[r].priority);
    } else {
      uses[w++] = uses[r];
    }
  }
  uses.resize(w);

  const std::uint64_t h = hash_uses(uses);
  const ActionId hit =
      index_.find(h, [&](ActionId id) { return actions_[id] == uses; });
  if (hit != util::kFlatEmptySlot) return hit;
  const ActionId id = static_cast<ActionId>(actions_.push_back(uses));
  index_.insert(h, id);
  return id;
}

ActionId ActionTable::combine(ActionId a, ActionId b) {
  if (a == kIdleAction) return b;
  if (b == kIdleAction) return a;
  const std::vector<ResourceUse>& ua = actions_[a];
  const std::vector<ResourceUse>& ub = actions_[b];
  std::size_t i = 0, j = 0;
  while (i < ua.size() && j < ub.size() && ua[i].resource != ub[j].resource) {
    if (ua[i].resource < ub[j].resource)
      ++i;
    else
      ++j;
  }
  if (i < ua.size() && j < ub.size()) return kOverlap;  // shared resource
  scratch_.assign(ua.begin(), ua.end());
  scratch_.insert(scratch_.end(), ub.begin(), ub.end());
  return intern_scratch();
}

bool ActionTable::preempts(ActionId a, ActionId b) const {
  if (a == b) return false;
  const auto& ua = actions_[a];
  const auto& ub = actions_[b];
  // Condition 1: every resource of a appears in b with >= priority.
  // Condition 2: some resource of b has strictly greater priority than its
  // priority in a (0 when absent from a).
  std::size_t i = 0;
  bool strictly_greater = false;
  for (const ResourceUse& rb : ub) {
    while (i < ua.size() && ua[i].resource < rb.resource) {
      return false;  // resource of a missing from b
    }
    if (i < ua.size() && ua[i].resource == rb.resource) {
      if (rb.priority < ua[i].priority) return false;
      if (rb.priority > ua[i].priority) strictly_greater = true;
      ++i;
    } else {
      if (rb.priority > 0) strictly_greater = true;
    }
  }
  if (i < ua.size()) return false;  // leftover resources of a not in b
  return strictly_greater;
}

EventSetTable::EventSetTable() {
  sets_.push_back({});
  index_.insert(hash_events(sets_[0]), 0);
}

EventSetId EventSetTable::intern(std::span<const Event> events) {
  std::vector<Event>& set = scratch_;
  set.assign(events.begin(), events.end());
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  const std::uint64_t h = hash_events(set);
  const EventSetId hit =
      index_.find(h, [&](EventSetId id) { return sets_[id] == set; });
  if (hit != util::kFlatEmptySlot) return hit;
  const EventSetId id = static_cast<EventSetId>(sets_.push_back(set));
  index_.insert(h, id);
  return id;
}

bool EventSetTable::contains(EventSetId id, Event e) const {
  const auto& s = sets_[id];
  return std::binary_search(s.begin(), s.end(), e);
}

}  // namespace aadlsched::acsr
