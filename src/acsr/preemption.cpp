#include "acsr/preemption.hpp"

#include <algorithm>

namespace aadlsched::acsr {

bool preempted_by(const ActionTable& actions, const Label& a,
                  const Label& b) {
  using K = Label::Kind;
  switch (a.kind) {
    case K::Action:
      if (b.kind == K::Action)
        return actions.preempts(a.action, b.action);
      if (b.kind == K::Tau) return b.priority > 0;
      return false;
    case K::Event:
      return b.kind == K::Event && a.event == b.event && a.send == b.send &&
             b.priority > a.priority;
    case K::Tau:
      return b.kind == K::Tau && b.priority > a.priority;
  }
  return false;
}

namespace {

using Entry = SkylineScratch::Entry;

/// The group of every tau; an event's group is its label and direction.
constexpr std::uint64_t kTauGroup = ~std::uint64_t{0};

/// Taus and events: within each group only the top priority survives.
void mark_instants(std::vector<Entry>& instants,
                   std::vector<std::uint8_t>& keep) {
  std::sort(instants.begin(), instants.end(),
            [](const Entry& a, const Entry& b) {
              return a.group != b.group ? a.group < b.group : a.key > b.key;
            });
  for (std::size_t g = 0; g < instants.size();) {
    std::size_t end = g;
    for (; end < instants.size() && instants[end].group == instants[g].group;
         ++end)
      keep[instants[end].index] = instants[end].key == instants[g].key;
    g = end;
  }
}

/// Actions: the skyline pass of preemption.hpp. Returns the ≺ tests made.
std::uint64_t mark_actions(const ActionTable& actions,
                           std::vector<Entry>& entries,
                           std::vector<ActionId>& survivors,
                           std::vector<std::uint8_t>& keep) {
  // Descending K; equal actions adjacent so each distinct action is tested
  // once and its verdict copied to its duplicates.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.key != b.key ? a.key > b.key : a.group < b.group;
            });
  std::uint64_t checks = 0;
  survivors.clear();
  for (std::size_t g = 0; g < entries.size();) {
    std::size_t end = g;
    while (end < entries.size() && entries[end].key == entries[g].key) ++end;
    const std::size_t higher = survivors.size();
    for (std::size_t i = g; i < end;) {
      const ActionId a = static_cast<ActionId>(entries[i].group);
      std::size_t dup = i;
      while (dup < end && entries[dup].group == entries[i].group) ++dup;
      bool kept = true;
      for (std::size_t s = 0; s < higher && kept; ++s, ++checks)
        kept = !actions.preempts(a, survivors[s]);
      // Same K and a ≺ b needs a negative priority in a (see the header).
      if (kept && entries[i].negative) {
        for (std::size_t j = g; j < end && kept; ++j) {
          if (entries[j].group == entries[i].group) continue;
          ++checks;
          kept = !actions.preempts(
              a, static_cast<ActionId>(entries[j].group));
        }
      }
      for (; i < dup; ++i) keep[entries[i].index] = kept;
      if (kept) survivors.push_back(a);
    }
    g = end;
  }
  return checks;
}

}  // namespace

std::uint64_t mark_survivors(const ActionTable& actions,
                             std::span<const Label> labels,
                             std::vector<std::uint8_t>& keep,
                             SkylineScratch& scratch) {
  keep.assign(labels.size(), 1);
  scratch.instants.clear();
  scratch.actions.clear();
  bool positive_tau = false;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const Label& l = labels[i];
    const auto index = static_cast<std::uint32_t>(i);
    switch (l.kind) {
      case Label::Kind::Tau:
        positive_tau |= l.priority > 0;
        scratch.instants.push_back(Entry{l.priority, kTauGroup, index, false});
        break;
      case Label::Kind::Event:
        scratch.instants.push_back(
            Entry{l.priority,
                  (static_cast<std::uint64_t>(l.event) << 1) | l.send, index,
                  false});
        break;
      case Label::Kind::Action: {
        Entry e{0, l.action, index, false};
        for (const ResourceUse& u : actions.uses(l.action)) {
          e.key += std::max<std::int64_t>(u.priority, 0);
          e.negative |= u.priority < 0;
        }
        scratch.actions.push_back(e);
        break;
      }
    }
  }

  mark_instants(scratch.instants, keep);
  if (positive_tau) {
    for (const Entry& e : scratch.actions) keep[e.index] = 0;
    return 0;
  }
  return mark_actions(actions, scratch.actions, scratch.survivors, keep);
}

void prioritize(const ActionTable& actions, std::vector<Transition>& ts) {
  std::vector<Label> labels;
  labels.reserve(ts.size());
  for (const Transition& t : ts) labels.push_back(t.label);
  std::vector<std::uint8_t> keep;
  SkylineScratch scratch;
  mark_survivors(actions, labels, keep, scratch);
  std::size_t w = 0;
  for (std::size_t i = 0; i < ts.size(); ++i)
    if (keep[i]) ts[w++] = ts[i];
  ts.resize(w);
}

}  // namespace aadlsched::acsr
