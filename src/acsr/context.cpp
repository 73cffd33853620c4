#include "acsr/context.hpp"

#include <cassert>
#include <stdexcept>

namespace aadlsched::acsr {

OpenTermId Context::push_open(OpenTermNode n) {
  const OpenTermId id = static_cast<OpenTermId>(open_terms_.size());
  open_terms_.push_back(std::move(n));
  return id;
}

OpenTermId Context::o_nil() {
  OpenTermNode n;
  n.kind = OpenKind::Nil;
  return push_open(std::move(n));
}

OpenTermId Context::o_act(std::vector<OpenResourceUse> action,
                          OpenTermId cont) {
  OpenTermNode n;
  n.kind = OpenKind::Act;
  n.action = std::move(action);
  n.cont = cont;
  return push_open(std::move(n));
}

OpenTermId Context::o_evt(Event e, bool send, ExprId priority,
                          OpenTermId cont) {
  OpenTermNode n;
  n.kind = OpenKind::Evt;
  n.event = e;
  n.send = send;
  n.priority = priority;
  n.cont = cont;
  return push_open(std::move(n));
}

OpenTermId Context::o_choice(std::vector<OpenTermId> children) {
  OpenTermNode n;
  n.kind = OpenKind::Choice;
  n.children = std::move(children);
  return push_open(std::move(n));
}

OpenTermId Context::o_parallel(std::vector<OpenTermId> children) {
  OpenTermNode n;
  n.kind = OpenKind::Parallel;
  n.children = std::move(children);
  return push_open(std::move(n));
}

OpenTermId Context::o_restrict(std::vector<Event> events, OpenTermId body) {
  OpenTermNode n;
  n.kind = OpenKind::Restrict;
  n.restricted = std::move(events);
  n.cont = body;
  return push_open(std::move(n));
}

OpenTermId Context::o_scope(OpenTermId body, ExprId timeout,
                            Event exception_label, OpenTermId exception_cont,
                            OpenTermId interrupt_handler,
                            OpenTermId timeout_handler) {
  OpenTermNode n;
  n.kind = OpenKind::Scope;
  n.cont = body;
  n.timeout = timeout;
  n.exception_label = exception_label;
  n.exception_cont = exception_cont;
  n.interrupt_handler = interrupt_handler;
  n.timeout_handler = timeout_handler;
  return push_open(std::move(n));
}

OpenTermId Context::o_call(DefId def, std::vector<ExprId> args) {
  OpenTermNode n;
  n.kind = OpenKind::Call;
  n.def = def;
  n.args = std::move(args);
  return push_open(std::move(n));
}

OpenTermId Context::o_cond(CondId guard, OpenTermId body) {
  OpenTermNode n;
  n.kind = OpenKind::Cond;
  n.guard = guard;
  n.cont = body;
  return push_open(std::move(n));
}

DefId Context::declare(std::string_view name) {
  if (auto it = def_index_.find(std::string(name)); it != def_index_.end())
    return it->second;
  const DefId id = static_cast<DefId>(defs_.size());
  Definition d;
  d.name = std::string(name);
  defs_.push_back(std::move(d));
  def_index_.emplace(std::string(name), id);
  return id;
}

void Context::define(DefId id, Definition def) {
  assert(id < defs_.size());
  if (def.name.empty()) def.name = defs_[id].name;
  if (def.name != defs_[id].name)
    throw std::logic_error("definition name mismatch for '" + def.name + "'");
  defs_[id] = std::move(def);
}

DefId Context::define(Definition def) {
  const DefId id = declare(def.name);
  define(id, std::move(def));
  return id;
}

std::optional<DefId> Context::find_definition(std::string_view name) const {
  auto it = def_index_.find(std::string(name));
  if (it == def_index_.end()) return std::nullopt;
  return it->second;
}

TermId Context::instantiate(OpenTermId open_id,
                            std::span<const ParamValue> params) {
  // Copy the node: instantiation below constructs new open terms never, but
  // recursing while holding a deque reference is safe anyway; the copy keeps
  // the invariant obvious.
  const OpenTermNode n = open_terms_[open_id];
  switch (n.kind) {
    case OpenKind::Nil:
      return kNil;
    case OpenKind::Act: {
      std::vector<ResourceUse> uses;
      uses.reserve(n.action.size());
      for (const OpenResourceUse& u : n.action) {
        const std::int64_t p = exprs_.eval(u.priority, params);
        uses.push_back(ResourceUse{
            u.resource,
            static_cast<Priority>(p < 0 ? 0 : p)});
      }
      const TermId cont = instantiate(n.cont, params);
      return terms_.act(actions_.intern(std::move(uses)), cont);
    }
    case OpenKind::Evt: {
      const std::int64_t p = exprs_.eval(n.priority, params);
      const TermId cont = instantiate(n.cont, params);
      return terms_.evt(n.event, n.send,
                        static_cast<Priority>(p < 0 ? 0 : p), cont);
    }
    case OpenKind::Choice: {
      std::vector<TermId> alts;
      alts.reserve(n.children.size());
      for (OpenTermId c : n.children) alts.push_back(instantiate(c, params));
      return terms_.choice(std::move(alts));
    }
    case OpenKind::Parallel: {
      std::vector<TermId> procs;
      procs.reserve(n.children.size());
      for (OpenTermId c : n.children) procs.push_back(instantiate(c, params));
      return terms_.parallel(std::move(procs));
    }
    case OpenKind::Restrict: {
      const TermId body = instantiate(n.cont, params);
      return terms_.restrict(event_sets_.intern(n.restricted), body);
    }
    case OpenKind::Scope: {
      ScopeParts parts;
      const std::int64_t t = exprs_.eval(n.timeout, params);
      parts.time_left =
          t < 0 ? kInfiniteTime : static_cast<TimeValue>(t);
      parts.body = instantiate(n.cont, params);
      parts.exception_label = n.exception_label;
      parts.exception_cont = n.exception_cont == kInvalidOpenTerm
                                 ? kInvalidTerm
                                 : instantiate(n.exception_cont, params);
      parts.interrupt_handler = n.interrupt_handler == kInvalidOpenTerm
                                    ? kInvalidTerm
                                    : instantiate(n.interrupt_handler, params);
      parts.timeout_handler = n.timeout_handler == kInvalidOpenTerm
                                  ? kInvalidTerm
                                  : instantiate(n.timeout_handler, params);
      return terms_.scope(parts);
    }
    case OpenKind::Call: {
      std::vector<ParamValue> args;
      args.reserve(n.args.size());
      for (ExprId a : n.args) {
        const std::int64_t v = exprs_.eval(a, params);
        args.push_back(static_cast<ParamValue>(v));
      }
      return terms_.call(n.def, args);
    }
    case OpenKind::Cond:
      return exprs_.eval_cond(n.guard, params) ? instantiate(n.cont, params)
                                               : kNil;
  }
  return kNil;
}

TermId Context::unfold(TermId call_term) {
  if (call_term < unfold_memo_.size() &&
      unfold_memo_[call_term] != kInvalidTerm)
    return unfold_memo_[call_term];
  const TermNode& node = terms_.node(call_term);
  assert(node.kind == TermKind::Call);
  const DefId def_id = node.a;
  const Definition& def = defs_[def_id];
  if (def.body == kInvalidOpenTerm)
    throw std::logic_error("call to undefined process '" + def.name + "'");
  const auto raw = terms_.payload(call_term);
  std::vector<ParamValue> params(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    params[i] = static_cast<ParamValue>(raw[i]);
  const TermId ground = instantiate(def.body, params);
  if (call_term >= unfold_memo_.size())
    unfold_memo_.resize(terms_.size(), kInvalidTerm);
  unfold_memo_[call_term] = ground;
  return ground;
}

std::size_t Context::approx_bytes() const {
  // Rough per-entry constants stand in for hash-index and allocator
  // overhead; explored states live in the explorer's state table, and the
  // term table (nodes + payload arena) is most of what is left here.
  std::size_t bytes = terms_.approx_bytes() + actions_.approx_bytes();
  bytes += exprs_.expr_count() * (sizeof(ExprNode) + 48);
  bytes += (resources_.size() + events_.size()) * 64;
  bytes += open_terms_.size() * sizeof(OpenTermNode);
  bytes += defs_.size() * sizeof(Definition);
  bytes += unfold_memo_.capacity() * sizeof(TermId);
  return bytes;
}

}  // namespace aadlsched::acsr
