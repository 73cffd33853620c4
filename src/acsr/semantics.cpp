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
           (cand_rows_.capacity() + fold_rows_.capacity() +
            next_rows_.capacity()) * sizeof(TermId) +
           (fold_actions_.capacity() + next_actions_.capacity()) *
               sizeof(ActionId) +
           keep_.capacity();
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
                                    bool interruptible) {
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
    for (const Transition& tr : fans[i]) {
      if (tr.label.is_timed()) continue;
      if (restricted != kNoRestriction &&
          tr.label.kind == Label::Kind::Event &&
          ctx_.event_sets().contains(restricted, tr.label.event))
        continue;
      add(tr.label)[i] = tr.target;
    }
  }

  // Par4: matching send/receive pairs synchronize into tau. The tau's
  // priority is the sum of the two offers; it remembers the event label.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (const Transition& ti : fans[i]) {
        if (ti.label.kind != Label::Kind::Event) continue;
        for (const Transition& tj : fans[j]) {
          if (tj.label.kind != Label::Kind::Event) continue;
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
  // the components; partial p is fold_actions_[p] plus the n-wide row p of
  // fold_rows_, whose first i entries are chosen. If any component offers
  // no timed step, time cannot advance in the composition.
  const bool poll = interruptible && budget_ != nullptr;
  std::size_t until_poll = kPollPartials;
  fold_actions_.assign(1, kIdleAction);
  fold_rows_.assign(kids.begin(), kids.end());
  for (std::size_t i = 0; i < n && !fold_actions_.empty(); ++i) {
    next_actions_.clear();
    next_rows_.clear();
    for (std::size_t p = 0; p < fold_actions_.size(); ++p) {
      for (const Transition& tr : fans[i]) {
        if (!tr.label.is_timed()) continue;
        if (!actions.disjoint(fold_actions_[p], tr.label.action)) continue;
        next_actions_.push_back(
            actions.merge(fold_actions_[p], tr.label.action));
        const auto row = fold_rows_.begin() + static_cast<std::ptrdiff_t>(p * n);
        next_rows_.insert(next_rows_.end(), row,
                          row + static_cast<std::ptrdiff_t>(n));
        next_rows_[next_rows_.size() - n + i] = tr.target;
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
    fold_actions_.swap(next_actions_);
    fold_rows_.swap(next_rows_);
  }
  for (std::size_t p = 0; p < fold_actions_.size(); ++p) {
    cand_labels_.push_back(Label::make_action(fold_actions_[p]));
    const auto row = fold_rows_.begin() + static_cast<std::ptrdiff_t>(p * n);
    cand_rows_.insert(cand_rows_.end(), row,
                      row + static_cast<std::ptrdiff_t>(n));
  }
  kid_fans_.resize(base);
  return true;
}

}  // namespace aadlsched::acsr
