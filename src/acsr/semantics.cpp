#include "acsr/semantics.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "util/hash.hpp"

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

/// A recorded choice row stores positions as 16 bits; 0xFFFF is "stays".
constexpr std::size_t kNarrowStays = 0xFFFF;

std::uint64_t hash_labels(std::span<const Transition> fan) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const Transition& tr : fan) {
    const Label& l = tr.label;
    h = util::hash_combine(h, static_cast<std::uint64_t>(l.kind) << 33 |
                                  static_cast<std::uint64_t>(l.send) << 32 |
                                  l.action);
    h = util::hash_combine(h, static_cast<std::uint64_t>(l.event) << 32 |
                                  static_cast<std::uint32_t>(l.priority));
  }
  return h;
}

bool same_labels(std::span<const Transition> a, std::span<const Transition> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Transition& x, const Transition& y) {
                      return x.label == y.label;
                    });
}

/// Interns each target row as a term: Parallel(row), inside Restrict(F, .)
/// when F is set; [kNil] is NIL.
class TermSink final : public Semantics::RowSink {
 public:
  TermSink(TermTable& tt, EventSetId restriction)
      : tt_(tt), restriction_(restriction) {}

  std::uint32_t intern(std::span<const TermId> row) override {
    if (row.size() == 1) return row[0];
    const TermId par = tt_.parallel(row);
    return restriction_ == Semantics::kNoRestriction
               ? par
               : tt_.restrict(restriction_, par);
  }

 private:
  TermTable& tt_;
  EventSetId restriction_;
};

}  // namespace

std::size_t Semantics::approx_bytes() const {
  std::size_t bytes = memo_.capacity() * sizeof(FanEntry) +
                      skyline_.approx_bytes() +
                      signature_index_.approx_bytes() +
                      shape_keys_.approx_bytes();
  for (const std::vector<Transition>& b : blocks_)
    bytes += b.capacity() * sizeof(Transition);
  bytes += signatures_.capacity() * sizeof(Fan) +
           shapes_.capacity() * sizeof(Shape) +
           kept_labels_.capacity() * sizeof(Label) +
           kept_choices_.capacity() * sizeof(std::uint16_t);
  bytes += out_.capacity() * sizeof(Transition) +
           kid_fans_.capacity() * sizeof(Fan) +
           cand_labels_.capacity() * sizeof(Label) +
           cand_choices_.capacity() * sizeof(std::uint32_t) +
           (row_.capacity() + flat_.capacity()) * sizeof(TermId) +
           shape_key_.capacity() * sizeof(std::uint32_t) +
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
  TermTable& tt = ctx_.terms();
  const TermNode& node = tt.node(t);
  const bool restricted = node.kind == TermKind::Restrict &&
                          tt.kind(node.b) == TermKind::Parallel;
  if (restricted || node.kind == TermKind::Parallel) {
    const EventSetId fset = restricted ? node.a : kNoRestriction;
    TermSink sink(tt, fset);
    return expand_row(fset, tt.payload(restricted ? node.b : t), sink, out);
  }
  out.clear();
  if (!memoize_) rewind();
  const Fan f = fan(t);
  cand_labels_.clear();
  for (const Transition& tr : f) cand_labels_.push_back(tr.label);
  stats_.preempt_checks +=
      mark_survivors(ctx_.actions(), cand_labels_, keep_, skyline_);
  for (std::size_t k = 0; k < f.size(); ++k)
    if (keep_[k]) out.push_back(f[k]);
  stats_.candidates += f.size();
  stats_.kept += out.size();
  return true;
}

bool Semantics::expand_row(EventSetId fset, std::span<const TermId> kids,
                           RowSink& sink, std::vector<Transition>& out) {
  out.clear();
  if (!memoize_) rewind();
  // Labels first: prioritize the candidates, name survivors only. The
  // shape key (restriction, one signature per child fan) finds an earlier
  // expansion with the same candidates and survivors.
  const std::size_t n = kids.size();
  const std::size_t base = kid_fans_.size();
  bool narrow = memoize_;  // a shape can be looked up and recorded
  shape_key_.assign(1, fset);
  for (const TermId k : kids) {
    std::uint32_t signature = kNoSignature;
    const Fan f = fan(k, memoize_ ? &signature : nullptr);
    kid_fans_.push_back(f);
    shape_key_.push_back(signature);
    narrow = narrow && f.size() < kNarrowStays;
  }
  const Fan* fans = kid_fans_.data() + base;
  const auto abandon = [&] {
    kid_fans_.resize(base);
    return false;
  };

  std::uint32_t found =
      narrow ? shape_keys_.find(shape_key_) : util::kFlatEmptySlot;
  if (found != util::kFlatEmptySlot) {
    // The fold this skips would intern only unions a first fold of this
    // shape already interned; but a long one would have polled the budget,
    // so poll once.
    if (shapes_[found].poll && budget_ != nullptr && !poll_budget())
      return abandon();
    ++stats_.shape_hits;
    stats_.candidates += shapes_[found].candidates;
    stats_.kept += shapes_[found].kept;
  } else {
    if (!parallel_candidates(fans, n, fset, true)) return abandon();
    stats_.preempt_checks +=
        mark_survivors(ctx_.actions(), cand_labels_, keep_, skyline_);
    // Survivors to the front, in candidate order.
    const std::size_t candidates = cand_labels_.size();
    std::size_t kept = 0;
    for (std::size_t k = 0; k < candidates; ++k) {
      if (!keep_[k]) continue;
      cand_labels_[kept] = cand_labels_[k];
      std::copy_n(cand_choices_.data() + k * n, n,
                  cand_choices_.data() + kept * n);
      ++kept;
    }
    cand_labels_.resize(kept);
    cand_choices_.resize(kept * n);
    stats_.candidates += candidates;
    stats_.kept += kept;
    if (narrow) found = record_shape(n, candidates);
  }
  // Hits and recorded misses build their targets from the shape, with the
  // same survivors in the same order as the fold's.
  if (found != util::kFlatEmptySlot) {
    const Shape& sh = shapes_[found];
    materialize(kids, fans,
                std::span<const Label>(kept_labels_).subspan(sh.kept_at,
                                                             sh.kept),
                kept_choices_.data() + sh.choices_at, sink, out);
  } else {
    materialize(kids, fans, cand_labels_, cand_choices_.data(), sink, out);
  }
  kid_fans_.resize(base);
  canonicalize(out, 0);
  return true;
}

std::uint32_t Semantics::record_shape(std::size_t n,
                                      std::size_t candidates) {
  const std::size_t kept = cand_labels_.size();
  const auto fits = [](std::size_t at, std::size_t more) {
    return at + more < util::kFlatEmptySlot;
  };
  if (shape_key_.size() > decltype(shape_keys_)::kMaxSpan ||
      candidates >> 31 != 0 || !fits(shapes_.size(), 1) ||
      !fits(kept_labels_.size(), kept) ||
      !fits(kept_choices_.size(), kept * n))
    return util::kFlatEmptySlot;
  const auto u32 = [](std::size_t v) { return static_cast<std::uint32_t>(v); };
  const std::uint32_t id = shape_keys_.intern(shape_key_);
  assert(id == shapes_.size());
  shapes_.push_back(Shape{u32(kept_labels_.size()), u32(kept_choices_.size()),
                          u32(candidates), u32(kept),
                          partials_.size() - 1 >= kPollPartials});
  kept_labels_.insert(kept_labels_.end(), cand_labels_.begin(),
                      cand_labels_.end());
  static_assert(static_cast<std::uint16_t>(kStays) == kNarrowStays);
  const std::size_t at = kept_choices_.size();
  kept_choices_.resize(at + cand_choices_.size());
  std::transform(cand_choices_.begin(), cand_choices_.end(),
                 kept_choices_.begin() + static_cast<std::ptrdiff_t>(at),
                 [](std::uint32_t c) {
                   return static_cast<std::uint16_t>(c);
                 });
  return id;
}

Semantics::Fan Semantics::fan(TermId t, std::uint32_t* signature) {
  if (memoize_ && t < memo_.size() && memo_[t].size != kNoFan) {
    FanEntry& hit = memo_[t];
    ++stats_.memo_hits;
    const Fan f(hit.data, hit.size);
    if (signature != nullptr) {
      if (hit.signature == kNoSignature) hit.signature = intern_signature(f);
      *signature = hit.signature;
    }
    return f;
  }
  ++stats_.computed;
  const std::size_t base = out_.size();
  compute(t);
  canonicalize(out_, base);
  const Fan f = store(Fan(out_).subspan(base));
  out_.resize(base);
  if (memoize_) {
    const std::uint32_t s =
        signature != nullptr ? intern_signature(f) : kNoSignature;
    if (signature != nullptr) *signature = s;
    // compute() may have interned terms above t: size the memo to the table.
    if (t >= memo_.size()) memo_.resize(ctx_.terms().size());
    memo_[t] = FanEntry{f.data(), static_cast<std::uint32_t>(f.size()), s};
  }
  return f;
}

std::uint32_t Semantics::intern_signature(Fan f) {
  const std::uint64_t hash = hash_labels(f);
  std::uint32_t id = signature_index_.find(
      hash, [&](std::uint32_t s) { return same_labels(signatures_[s], f); });
  if (id == util::kFlatEmptySlot) {
    id = static_cast<std::uint32_t>(signatures_.size());
    signatures_.push_back(f);
    signature_index_.insert(hash, id);
  }
  return id;
}

bool Semantics::poll_budget() {
  interruption_ = budget_->check_mid_expansion();
  return interruption_.signal == util::BudgetSignal::Proceed;
}

template <typename Choice>
void Semantics::materialize(std::span<const TermId> kids, const Fan* fans,
                            std::span<const Label> labels,
                            const Choice* choices, RowSink& sink,
                            std::vector<Transition>& out) {
  const TermTable& tt = ctx_.terms();
  const std::size_t n = kids.size();
  for (std::size_t k = 0; k < labels.size(); ++k, choices += n) {
    // The row TermTable::parallel would intern: a moved component that is
    // itself a Parallel is flattened into its children; sorted; NIL when
    // every component is.
    row_.clear();
    bool nested = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (choices[i] == static_cast<Choice>(kStays)) {
        row_.push_back(kids[i]);
        continue;
      }
      const TermId t = fans[i][choices[i]].target;
      nested = nested || tt.kind(t) == TermKind::Parallel;
      row_.push_back(t);
    }
    if (nested) {
      flat_.clear();
      for (const TermId t : row_) {
        if (tt.kind(t) == TermKind::Parallel) {
          const auto p = tt.payload(t);
          flat_.insert(flat_.end(), p.begin(), p.end());
        } else {
          flat_.push_back(t);
        }
      }
      row_.swap(flat_);
    }
    std::sort(row_.begin(), row_.end());
    if (row_.back() == kNil) row_.assign(1, kNil);
    out.push_back(Transition{labels[k], sink.intern(row_)});
  }
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
      const auto kids = tt.payload(t);
      const std::size_t base = kid_fans_.size();
      for (const TermId k : kids) {
        const Fan f = fan(k);
        kid_fans_.push_back(f);
      }
      const Fan* fans = kid_fans_.data() + base;
      parallel_candidates(fans, kids.size(), kNoRestriction, false);
      TermSink sink(tt, kNoRestriction);
      materialize(kids, fans, cand_labels_, cand_choices_.data(), sink, out_);
      kid_fans_.resize(base);
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

bool Semantics::parallel_candidates(const Fan* fans, std::size_t n,
                                    EventSetId restricted,
                                    bool labels_first) {
  ActionTable& actions = ctx_.actions();

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
  cand_choices_.clear();
  // New candidate: its label, and a choice row in which every component
  // stays, for the caller to overwrite with the moving components'
  // positions. The row pointer is valid until the next call.
  const auto add = [&](const Label& label) {
    cand_labels_.push_back(label);
    const std::size_t at = cand_choices_.size();
    cand_choices_.resize(at + n, kStays);
    return cand_choices_.data() + at;
  };
  const auto position = [](std::size_t p) {
    return static_cast<std::uint32_t>(p);
  };

  // Par1/Par2: events and taus of one component interleave. An event the
  // restriction around this Parallel would block is not a candidate.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = offers_[i].timed_end; p < fans[i].size(); ++p) {
      const Label& label = fans[i][p].label;
      if (restricted != kNoRestriction && label.kind == Label::Kind::Event &&
          ctx_.event_sets().contains(restricted, label.event))
        continue;
      add(label)[i] = position(p);
    }
  }

  // Par4: matching send/receive pairs synchronize into tau. The tau's
  // priority is the sum of the two offers; it remembers the event label.
  for (std::size_t i = 0; i < n; ++i) {
    if (offers_[i].timed_end == offers_[i].events_end) continue;
    for (std::size_t j = i + 1; j < n; ++j) {
      for (std::size_t p = offers_[i].timed_end; p < offers_[i].events_end;
           ++p) {
        const Label& li = fans[i][p].label;
        for (std::size_t q = offers_[j].timed_end; q < offers_[j].events_end;
             ++q) {
          const Label& lj = fans[j][q].label;
          if (li.event != lj.event || li.send == lj.send) continue;
          std::uint32_t* row =
              add(Label::make_tau(li.event, li.priority + lj.priority));
          row[i] = position(p);
          row[j] = position(q);
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
  const std::size_t row = cand_choices_.size();
  cand_choices_.resize(row + n, kStays);  // base
  partials_.assign(1, Partial{kIdleAction, 0, 0});
  level_kid_.clear();
  std::size_t level = 0;  // first partial of the last level
  for (std::size_t i = 0; i < n && level < partials_.size(); ++i) {
    const Fan timed = fans[i].first(offers_[i].timed_end);
    if (timed.size() == 1 && timed[0].label.action == kIdleAction) {
      cand_choices_[row + i] = 0;
      continue;
    }
    const std::size_t end = partials_.size();
    level_kid_.push_back(static_cast<std::uint32_t>(i));
    for (std::size_t p = level; p < end; ++p) {
      const ActionId a = partials_[p].action;
      for (std::size_t c = 0; c < timed.size(); ++c) {
        const ActionId u = actions.combine(a, timed[c].label.action);
        if (u == ActionTable::kOverlap) continue;
        partials_.push_back(
            Partial{u, static_cast<std::uint32_t>(p), position(c)});
        if (poll && --until_poll == 0) {
          until_poll = kPollPartials;
          if (!poll_budget()) return false;
        }
      }
    }
    level = end;
  }
  if (labels_first) stats_.fold_partials += partials_.size() - 1;
  const std::size_t finals = partials_.size() - level;
  cand_choices_.resize(row + finals * n);
  for (std::size_t f = 0; f < finals; ++f)
    cand_labels_.push_back(Label::make_action(partials_[level + f].action));
  // Last row first: every other row starts as a copy of the base row,
  // which the first final overwrites in place.
  for (std::size_t f = finals; f-- > 0;) {
    std::uint32_t* r = cand_choices_.data() + row + f * n;
    if (f > 0) std::copy_n(cand_choices_.data() + row, n, r);
    std::size_t p = level + f;
    for (std::size_t l = level_kid_.size(); l-- > 0; p = partials_[p].parent)
      r[level_kid_[l]] = partials_[p].choice;
  }
  return true;
}

}  // namespace aadlsched::acsr
