#include "acsr/preemption.hpp"

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

void mark_survivors(const ActionTable& actions, std::span<const Label> labels,
                    std::vector<std::uint8_t>& keep) {
  // O(n^2) pairwise check; fans are small (tens) in practice. A label is
  // kept iff nothing in the *full* set preempts it; preemption chains are
  // consistent because the underlying orders are transitive.
  keep.assign(labels.size(), 1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = 0; j < labels.size(); ++j) {
      if (i != j && preempted_by(actions, labels[i], labels[j])) {
        keep[i] = 0;
        break;
      }
    }
  }
}

void prioritize(const ActionTable& actions, std::vector<Transition>& ts) {
  std::vector<Label> labels;
  labels.reserve(ts.size());
  for (const Transition& t : ts) labels.push_back(t.label);
  std::vector<std::uint8_t> keep;
  mark_survivors(actions, labels, keep);
  std::size_t w = 0;
  for (std::size_t i = 0; i < ts.size(); ++i)
    if (keep[i]) ts[w++] = ts[i];
  ts.resize(w);
}

}  // namespace aadlsched::acsr
