#include "acsr/semantics.hpp"

#include <algorithm>
#include <tuple>

namespace aadlsched::acsr {

namespace {

std::tuple<int, std::uint32_t, std::uint32_t, std::uint32_t, TermId>
sort_key(const Transition& t) {
  return {static_cast<int>(t.label.kind), t.label.action,
          t.label.event * 2u + (t.label.send ? 1u : 0u),
          static_cast<std::uint32_t>(t.label.priority), t.target};
}

/// Sort ts[from..) into canonical order and drop duplicates.
void canonicalize(std::vector<Transition>& ts, std::size_t from) {
  const auto first = ts.begin() + static_cast<std::ptrdiff_t>(from);
  std::sort(first, ts.end(), [](const Transition& a, const Transition& b) {
    return sort_key(a) < sort_key(b);
  });
  ts.erase(std::unique(first, ts.end()), ts.end());
}

/// Fans are stored in blocks of this many transitions (a larger fan gets a
/// block of its own size).
constexpr std::size_t kBlockTransitions = 4096;

/// parallel_candidates() argument for a Parallel with no Restrict around it.
constexpr EventSetId kNoRestriction = static_cast<EventSetId>(-1);

}  // namespace

std::size_t Semantics::approx_bytes() const {
  std::size_t bytes = memo_.approx_bytes() + skyline_.approx_bytes();
  for (const std::vector<Transition>& b : blocks_)
    bytes += b.capacity() * sizeof(Transition);
  bytes += out_.capacity() * sizeof(Transition) +
           kid_fans_.capacity() * sizeof(Fan) +
           cand_labels_.capacity() * sizeof(Label) +
           cand_rows_.capacity() * sizeof(TermId) +
           partials_.capacity() * sizeof(Partial) +
           level_kid_.capacity() * sizeof(std::uint32_t) +
           offers_.capacity() * sizeof(Offers) + keep_.capacity();
  return bytes;
}

Semantics::Fan Semantics::store(Fan f) {
  if (f.empty()) return {};
  for (;; ++block_) {
    if (block_ == blocks_.size())
      blocks_.emplace_back().reserve(std::max(kBlockTransitions, f.size()));
    std::vector<Transition>& b = blocks_[block_];
    if (b.capacity() - b.size() >= f.size()) {
      const std::size_t at = b.size();
      b.insert(b.end(), f.begin(), f.end());  // within capacity: no move
      return {b.data() + at, f.size()};
    }
  }
}

void Semantics::rewind() {
  // Blocks past block_ are still empty from the previous rewind.
  for (std::size_t b = 0; b < blocks_.size() && b <= block_; ++b)
    blocks_[b].clear();
  block_ = 0;
}

std::vector<Transition> Semantics::transitions(TermId t) {
  if (!memoize_) rewind();
  const Fan f = fan(t);
  return {f.begin(), f.end()};
}

bool Semantics::prioritized(TermId t, std::vector<Transition>& out) {
  out.clear();
  if (!memoize_) rewind();
  TermTable& tt = ctx_.terms();
  const TermNode& node = tt.node(t);
  const bool restricted = node.kind == TermKind::Restrict &&
                          tt.kind(node.b) == TermKind::Parallel;
  if (restricted || node.kind == TermKind::Parallel) {
    // Labels first: prioritize the candidates, intern survivors only.
    const TermId par = restricted ? node.b : t;
    const EventSetId fset = restricted ? node.a : kNoRestriction;
    if (!parallel_candidates(par, fset, true)) return false;
    stats_.preempt_checks +=
        mark_survivors(ctx_.actions(), cand_labels_, keep_, skyline_);
    const std::size_t n = tt.payload(par).size();
    for (std::size_t k = 0; k < cand_labels_.size(); ++k) {
      if (!keep_[k]) continue;
      ++stats_.kept;
      TermId target = tt.parallel(
          std::span<const TermId>(cand_rows_.data() + k * n, n));
      if (restricted) target = tt.restrict(fset, target);
      out.push_back(Transition{cand_labels_[k], target});
    }
    stats_.candidates += cand_labels_.size();
    canonicalize(out, 0);
  } else {
    const Fan f = fan(t);
    cand_labels_.clear();
    for (const Transition& tr : f) cand_labels_.push_back(tr.label);
    stats_.preempt_checks +=
        mark_survivors(ctx_.actions(), cand_labels_, keep_, skyline_);
    for (std::size_t k = 0; k < f.size(); ++k)
      if (keep_[k]) out.push_back(f[k]);
    stats_.candidates += f.size();
    stats_.kept += out.size();
  }
  return true;
}

Semantics::Fan Semantics::fan(TermId t) {
  if (memoize_) {
    if (const Fan* hit = memo_.find(t)) {
      ++stats_.memo_hits;
      return *hit;
    }
  }
  ++stats_.computed;
  const std::size_t base = out_.size();
  compute(t);
  canonicalize(out_, base);
  const Fan f = store(Fan(out_).subspan(base));
  out_.resize(base);
  if (memoize_) memo_.emplace(t, f);
  return f;
}

void Semantics::compute(TermId t) {
  TermTable& tt = ctx_.terms();
  const TermNode node = tt.node(t);
  switch (node.kind) {
    case TermKind::Nil:
      break;

    case TermKind::Act:
      out_.push_back(Transition{Label::make_action(node.a), node.b});
      break;

    case TermKind::Evt:
      out_.push_back(Transition{
          Label::make_event(node.a, node.flag != 0,
                            static_cast<Priority>(node.c)),
          node.b});
      break;

    case TermKind::Choice:
      for (const TermId k : tt.payload(t)) {
        const Fan f = fan(k);
        out_.insert(out_.end(), f.begin(), f.end());
      }
      break;

    case TermKind::Parallel: {
      parallel_candidates(t, kNoRestriction, false);
      const std::size_t n = tt.payload(t).size();
      for (std::size_t k = 0; k < cand_labels_.size(); ++k)
        out_.push_back(Transition{
            cand_labels_[k],
            tt.parallel(
                std::span<const TermId>(cand_rows_.data() + k * n, n))});
      break;
    }

    case TermKind::Restrict: {
      const EventSetId fset = node.a;
      for (const Transition& tr : fan(node.b)) {
        if (tr.label.kind == Label::Kind::Event &&
            ctx_.event_sets().contains(fset, tr.label.event))
          continue;  // restricted: may only synchronize inside
        out_.push_back(Transition{tr.label, tt.restrict(fset, tr.target)});
      }
      break;
    }

    case TermKind::Scope: {
      const ScopeParts parts = tt.scope_parts(t);
      for (const Transition& tr : fan(parts.body)) {
        if (tr.label.is_timed()) {
          ScopeParts next = parts;
          next.body = tr.target;
          if (next.time_left != kInfiniteTime) --next.time_left;
          out_.push_back(Transition{tr.label, tt.scope(next)});
        } else if (tr.label.kind == Label::Kind::Event &&
                   tr.label.send && parts.exception_label != 0 &&
                   tr.label.event == parts.exception_label) {
          // Voluntary exit: control transfers to the exception
          // continuation, the scope is dissolved.
          const TermId target = parts.exception_cont == kInvalidTerm
                                    ? kNil
                                    : parts.exception_cont;
          out_.push_back(Transition{tr.label, target});
        } else {
          // Events are instantaneous: the clock of the scope is unchanged.
          ScopeParts next = parts;
          next.body = tr.target;
          out_.push_back(Transition{tr.label, tt.scope(next)});
        }
      }
      if (parts.interrupt_handler != kInvalidTerm) {
        // The interrupt handler's initial steps remain enabled for the
        // lifetime of the scope; taking one abandons the body.
        const Fan intr = fan(parts.interrupt_handler);
        out_.insert(out_.end(), intr.begin(), intr.end());
      }
      break;
    }

    case TermKind::Call: {
      const Fan f = fan(ctx_.unfold(t));
      out_.insert(out_.end(), f.begin(), f.end());
      break;
    }
  }
}

bool Semantics::parallel_candidates(TermId par, EventSetId restricted,
                                    bool labels_first) {
  ActionTable& actions = ctx_.actions();
  const auto kids = ctx_.terms().payload(par);
  const std::size_t n = kids.size();

  // Child fans first: computing one can recurse into this function for a
  // nested Parallel, which reuses the candidate buffers below.
  const std::size_t base = kid_fans_.size();
  for (const TermId k : kids) {
    const Fan f = fan(k);
    kid_fans_.push_back(f);
  }
  const Fan* fans = kid_fans_.data() + base;

  // A canonical fan lists timed steps, then events, then taus.
  offers_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t t = 0;
    while (t < fans[i].size() && fans[i][t].label.is_timed()) ++t;
    std::uint32_t e = t;
    while (e < fans[i].size() && fans[i][e].label.kind == Label::Kind::Event)
      ++e;
    offers_.push_back(Offers{t, e});
  }

  cand_labels_.clear();
  cand_rows_.clear();
  // New candidate: its label, and a row of the components' current terms
  // for the caller to overwrite with the moving components' targets. The
  // row pointer is valid until the next call.
  const auto add = [&](const Label& label) {
    cand_labels_.push_back(label);
    const std::size_t at = cand_rows_.size();
    cand_rows_.insert(cand_rows_.end(), kids.begin(), kids.end());
    return cand_rows_.data() + at;
  };

  // Par1/Par2: events and taus of one component interleave. An event the
  // restriction around this Parallel would block is not a candidate.
  for (std::size_t i = 0; i < n; ++i) {
    for (const Transition& tr : fans[i].subspan(offers_[i].timed_end)) {
      if (restricted != kNoRestriction &&
          tr.label.kind == Label::Kind::Event &&
          ctx_.event_sets().contains(restricted, tr.label.event))
        continue;
      add(tr.label)[i] = tr.target;
    }
  }

  // Par4: matching send/receive pairs synchronize into tau. The tau's
  // priority is the sum of the two offers; it remembers the event label.
  const auto events = [&](std::size_t i) {
    return fans[i].subspan(offers_[i].timed_end,
                           offers_[i].events_end - offers_[i].timed_end);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (events(i).empty()) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      for (const Transition& ti : events(i)) {
        for (const Transition& tj : events(j)) {
          if (ti.label.event != tj.label.event ||
              ti.label.send == tj.label.send)
            continue;
          TermId* row = add(Label::make_tau(
              ti.label.event, ti.label.priority + tj.label.priority));
          row[i] = ti.target;
          row[j] = tj.target;
        }
      }
    }
  }

  // Par3: one global timed action combining a timed step of *every*
  // component, resource sets pairwise disjoint. Built as a left fold over
  // the components, one level per component, each partial linked to the
  // partial it extends; rows are written only for the last level. A
  // component whose only timed step is idle extends every partial by
  // itself (combine() with idle interns nothing), so it opens no level and
  // just moves in the base row. If any component offers no timed step,
  // time cannot advance in the composition. combine() interns new unions,
  // so the order of its calls fixes every later ActionId: level by level,
  // partial by partial, step by step, until a level comes out empty, and
  // no partial pruned (DESIGN.md §13).
  const bool poll = labels_first && budget_ != nullptr;
  std::size_t until_poll = kPollPartials;
  const std::size_t row = cand_rows_.size();
  cand_rows_.insert(cand_rows_.end(), kids.begin(), kids.end());  // base
  partials_.assign(1, Partial{kIdleAction, 0, kNil});
  level_kid_.clear();
  std::size_t level = 0;  // first partial of the last level
  for (std::size_t i = 0; i < n && level < partials_.size(); ++i) {
    const Fan timed = fans[i].first(offers_[i].timed_end);
    if (timed.size() == 1 && timed[0].label.action == kIdleAction) {
      cand_rows_[row + i] = timed[0].target;
      continue;
    }
    const std::size_t end = partials_.size();
    level_kid_.push_back(static_cast<std::uint32_t>(i));
    for (std::size_t p = level; p < end; ++p) {
      const ActionId a = partials_[p].action;
      for (const Transition& tr : timed) {
        const ActionId u = actions.combine(a, tr.label.action);
        if (u == ActionTable::kOverlap) continue;
        partials_.push_back(
            Partial{u, static_cast<std::uint32_t>(p), tr.target});
        if (poll && --until_poll == 0) {
          until_poll = kPollPartials;
          interruption_ = budget_->check_mid_expansion();
          if (interruption_.signal != util::BudgetSignal::Proceed) {
            kid_fans_.resize(base);
            return false;
          }
        }
      }
    }
    level = end;
  }
  if (labels_first) stats_.fold_partials += partials_.size() - 1;
  const std::size_t finals = partials_.size() - level;
  cand_rows_.resize(row + finals * n);
  for (std::size_t f = 0; f < finals; ++f)
    cand_labels_.push_back(Label::make_action(partials_[level + f].action));
  // Last row first: every other row starts as a copy of the base row,
  // which the first final overwrites in place.
  for (std::size_t f = finals; f-- > 0;) {
    TermId* r = cand_rows_.data() + row + f * n;
    if (f > 0) std::copy_n(cand_rows_.data() + row, n, r);
    std::size_t p = level + f;
    for (std::size_t l = level_kid_.size(); l-- > 0; p = partials_[p].parent)
      r[level_kid_[l]] = partials_[p].target;
  }
  kid_fans_.resize(base);
  return true;
}

}  // namespace aadlsched::acsr
