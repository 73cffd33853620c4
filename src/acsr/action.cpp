#include "acsr/action.hpp"

#include <algorithm>

namespace aadlsched::acsr {

ActionTable::ActionTable() { actions_.intern({}); }  // 0: the idle action

ActionId ActionTable::intern(std::span<const ResourceUse> in) {
  std::vector<ResourceUse>& uses = scratch_;
  uses.assign(in.begin(), in.end());
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
  return actions_.intern(uses);
}

ActionId ActionTable::combine(ActionId a, ActionId b) {
  if (a == kIdleAction) return b;
  if (b == kIdleAction) return a;
  const std::span<const ResourceUse> ua = actions_[a];
  const std::span<const ResourceUse> ub = actions_[b];
  std::size_t i = 0, j = 0;
  while (i < ua.size() && j < ub.size() && ua[i].resource != ub[j].resource) {
    if (ua[i].resource < ub[j].resource)
      ++i;
    else
      ++j;
  }
  if (i < ua.size() && j < ub.size()) return kOverlap;  // shared resource
  // Both are canonical and their resources disjoint, so their merge is
  // already the canonical union.
  scratch_.resize(ua.size() + ub.size());
  std::merge(ua.begin(), ua.end(), ub.begin(), ub.end(), scratch_.begin());
  return actions_.intern(scratch_);
}

bool ActionTable::preempts(ActionId a, ActionId b) const {
  if (a == b) return false;
  const std::span<const ResourceUse> ua = actions_[a];
  const std::span<const ResourceUse> ub = actions_[b];
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

EventSetTable::EventSetTable() { sets_.intern({}); }

EventSetId EventSetTable::intern(std::span<const Event> events) {
  std::vector<Event>& set = scratch_;
  set.assign(events.begin(), events.end());
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return sets_.intern(set);
}

bool EventSetTable::contains(EventSetId id, Event e) const {
  return std::ranges::binary_search(sets_[id], e);
}

}  // namespace aadlsched::acsr
