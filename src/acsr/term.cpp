#include "acsr/term.hpp"

#include <algorithm>
#include <cassert>

#include "util/hash.hpp"

namespace aadlsched::acsr {

namespace {

std::uint64_t hash_node(const TermNode& n,
                        std::span<const std::uint32_t> payload) {
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(n.kind) |
                                (static_cast<std::uint64_t>(n.flag) << 8));
  h = util::hash_combine(h, n.a);
  h = util::hash_combine(h, n.b);
  h = util::hash_combine(h, n.c);
  for (std::uint32_t w : payload) h = util::hash_combine(h, w);
  return h;
}

}  // namespace

TermTable::TermTable() {
  // TermId 0 is NIL.
  nodes_.push_back(TermNode{});
  index_.insert(hash_node(nodes_[0], {}), kNil);
}

std::span<const std::uint32_t> TermTable::payload(TermId id) const {
  const TermNode& n = nodes_[id];
  return arena_.view(n.extra, n.extra_len);
}

TermId TermTable::intern(TermNode proto,
                         std::span<const std::uint32_t> payload) {
  proto.extra_len = static_cast<std::uint32_t>(payload.size());
  return index_.find_or_insert(
      hash_node(proto, payload),
      [&](TermId id) {
        const TermNode& n = nodes_[id];
        return n.kind == proto.kind && n.flag == proto.flag &&
               n.a == proto.a && n.b == proto.b && n.c == proto.c &&
               n.extra_len == proto.extra_len &&
               std::equal(payload.begin(), payload.end(),
                          arena_.view(n.extra, n.extra_len).begin());
      },
      [&] {
        proto.extra = static_cast<std::uint32_t>(arena_.append_span(payload));
        return static_cast<TermId>(nodes_.push_back(proto));
      });
}

TermId TermTable::act(ActionId action, TermId cont) {
  TermNode n;
  n.kind = TermKind::Act;
  n.a = action;
  n.b = cont;
  return intern(n, {});
}

TermId TermTable::evt(Event e, bool send, Priority priority, TermId cont) {
  TermNode n;
  n.kind = TermKind::Evt;
  n.flag = send ? 1 : 0;
  n.a = e;
  n.b = cont;
  n.c = static_cast<std::uint32_t>(priority);
  return intern(n, {});
}

TermId TermTable::choice(std::span<const TermId> alts) {
  // Flatten nested choices, drop NIL (neutral for choice), sort, dedup.
  std::vector<TermId>& flat = flat_;
  flat.clear();
  for (const TermId t : alts) {
    if (t == kNil) continue;
    if (nodes_[t].kind == TermKind::Choice) {
      const auto p = payload(t);  // chunked arena: span stays valid
      flat.insert(flat.end(), p.begin(), p.end());
    } else {
      flat.push_back(t);
    }
  }
  std::sort(flat.begin(), flat.end());
  flat.erase(std::unique(flat.begin(), flat.end()), flat.end());
  if (flat.empty()) return kNil;
  if (flat.size() == 1) return flat[0];
  TermNode n;
  n.kind = TermKind::Choice;
  return intern(n, flat);
}

TermId TermTable::parallel(std::span<const TermId> procs) {
  std::vector<TermId>& flat = flat_;
  flat.clear();
  for (const TermId t : procs) {
    if (nodes_[t].kind == TermKind::Parallel) {
      const auto p = payload(t);
      flat.insert(flat.end(), p.begin(), p.end());
    } else {
      flat.push_back(t);
    }
  }
  if (flat.empty()) return kNil;
  std::sort(flat.begin(), flat.end());
  if (flat.size() == 1) return flat[0];
  // NIL components must be kept (a dead component blocks global time
  // progress), but a composition of only NILs is itself NIL.
  if (flat.back() == kNil) return kNil;  // sorted: back()==0 => all zero
  TermNode n;
  n.kind = TermKind::Parallel;
  return intern(n, flat);
}

TermId TermTable::restrict(EventSetId events, TermId body) {
  if (body == kNil) return kNil;
  TermNode n;
  n.kind = TermKind::Restrict;
  n.a = events;
  n.b = body;
  return intern(n, {});
}

TermId TermTable::scope(const ScopeParts& parts) {
  if (parts.time_left == 0) {
    // Timed out at construction: behave as the timeout handler.
    return parts.timeout_handler == kInvalidTerm ? kNil
                                                 : parts.timeout_handler;
  }
  TermNode n;
  n.kind = TermKind::Scope;
  n.a = parts.body;
  n.b = static_cast<std::uint32_t>(parts.time_left);
  n.c = parts.exception_label;
  const std::uint32_t payload[3] = {parts.exception_cont,
                                    parts.interrupt_handler,
                                    parts.timeout_handler};
  return intern(n, payload);
}

ScopeParts TermTable::scope_parts(TermId id) const {
  const TermNode& n = nodes_[id];
  assert(n.kind == TermKind::Scope);
  const auto p = payload(id);
  ScopeParts parts;
  parts.body = n.a;
  parts.time_left = static_cast<TimeValue>(n.b);
  parts.exception_label = n.c;
  parts.exception_cont = p[0];
  parts.interrupt_handler = p[1];
  parts.timeout_handler = p[2];
  return parts;
}

TermId TermTable::call(DefId def, std::span<const ParamValue> args) {
  TermNode n;
  n.kind = TermKind::Call;
  n.a = def;
  flat_.clear();
  for (const ParamValue v : args)
    flat_.push_back(static_cast<std::uint32_t>(v));
  return intern(n, flat_);
}

}  // namespace aadlsched::acsr
