// Fluent construction helpers for ACSR definitions.
//
// Thin sugar over Context so that translator code and tests read close to
// the paper's notation:
//
//   Builder b(ctx);
//   auto compute = b.def("Compute", {"e", "t"},
//     b.pick({
//       b.when(b.lt(b.p(0), b.c(cmax)),
//              b.act({{"cpu", b.c(3)}},
//                    b.call("Compute", {b.add(b.p(0), b.c(1)),
//                                       b.add(b.p(1), b.c(1))}))),
//       ...}));
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "acsr/context.hpp"

namespace aadlsched::acsr {

class Builder {
 public:
  explicit Builder(Context& ctx) : ctx_(ctx) {}

  Context& context() { return ctx_; }

  // --- expressions ----------------------------------------------------
  ExprId c(std::int32_t v) { return ctx_.exprs().constant(v); }
  ExprId p(std::int32_t index) { return ctx_.exprs().param(index); }
  ExprId add(ExprId a, ExprId b) {
    return ctx_.exprs().binary(ExprKind::Add, a, b);
  }
  ExprId sub(ExprId a, ExprId b) {
    return ctx_.exprs().binary(ExprKind::Sub, a, b);
  }
  ExprId mul(ExprId a, ExprId b) {
    return ctx_.exprs().binary(ExprKind::Mul, a, b);
  }
  ExprId min(ExprId a, ExprId b) {
    return ctx_.exprs().binary(ExprKind::Min, a, b);
  }
  ExprId max(ExprId a, ExprId b) {
    return ctx_.exprs().binary(ExprKind::Max, a, b);
  }

  // --- guards -----------------------------------------------------------
  CondId lt(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Lt, a, b);
  }
  CondId le(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Le, a, b);
  }
  CondId gt(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Gt, a, b);
  }
  CondId ge(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Ge, a, b);
  }
  CondId eq(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Eq, a, b);
  }
  CondId ne(ExprId a, ExprId b) {
    return ctx_.exprs().compare(CondKind::Ne, a, b);
  }
  CondId both(CondId a, CondId b) {
    return ctx_.exprs().logic(CondKind::And, a, b);
  }
  CondId either(CondId a, CondId b) {
    return ctx_.exprs().logic(CondKind::Or, a, b);
  }

  // --- open terms -------------------------------------------------------
  OpenTermId nil() { return ctx_.o_nil(); }

  /// Timed action using named resources with priority expressions.
  OpenTermId act(
      std::vector<std::pair<std::string, ExprId>> uses, OpenTermId cont) {
    std::vector<OpenResourceUse> rs;
    rs.reserve(uses.size());
    for (auto& [name, prio] : uses)
      rs.push_back(OpenResourceUse{ctx_.resource(name), prio});
    return ctx_.o_act(std::move(rs), cont);
  }

  /// Idling step: the empty timed action.
  OpenTermId idle(OpenTermId cont) { return ctx_.o_act({}, cont); }

  OpenTermId send(std::string_view ev, ExprId priority, OpenTermId cont) {
    return ctx_.o_evt(ctx_.event(ev), /*send=*/true, priority, cont);
  }
  OpenTermId recv(std::string_view ev, ExprId priority, OpenTermId cont) {
    return ctx_.o_evt(ctx_.event(ev), /*send=*/false, priority, cont);
  }

  OpenTermId pick(std::vector<OpenTermId> alts) {
    return ctx_.o_choice(std::move(alts));
  }
  OpenTermId par(std::vector<OpenTermId> procs) {
    return ctx_.o_parallel(std::move(procs));
  }
  OpenTermId when(CondId guard, OpenTermId body) {
    return ctx_.o_cond(guard, body);
  }

  OpenTermId hide(std::vector<std::string> events, OpenTermId body) {
    std::vector<Event> es;
    es.reserve(events.size());
    for (const std::string& e : events) es.push_back(ctx_.event(e));
    return ctx_.o_restrict(std::move(es), body);
  }

  /// Temporal scope; pass kInvalidOpenTerm for handlers that do not exist.
  OpenTermId scope(OpenTermId body, ExprId timeout,
                   std::string_view exception_label = {},
                   OpenTermId exception_cont = kInvalidOpenTerm,
                   OpenTermId interrupt_handler = kInvalidOpenTerm,
                   OpenTermId timeout_handler = kInvalidOpenTerm) {
    const Event exc =
        exception_label.empty() ? Event{0} : ctx_.event(exception_label);
    return ctx_.o_scope(body, timeout, exc, exception_cont,
                        interrupt_handler, timeout_handler);
  }

  /// Call by definition name; declares the name if not yet defined, so
  /// mutually recursive definitions can be built in any order.
  OpenTermId call(std::string_view def_name, std::vector<ExprId> args = {}) {
    return ctx_.o_call(ctx_.declare(def_name), std::move(args));
  }

  // --- definitions -------------------------------------------------------
  DefId def(std::string name, std::vector<std::string> params,
            OpenTermId body, DefRole role = DefRole::Generic,
            std::string aadl_path = {}, std::string state_name = {}) {
    Definition d;
    d.name = std::move(name);
    d.params = std::move(params);
    d.body = body;
    d.role = role;
    d.aadl_path = std::move(aadl_path);
    d.state_name = std::move(state_name);
    return ctx_.define(std::move(d));
  }

  /// Ground start state: a call with concrete arguments.
  TermId start(std::string_view def_name,
               std::vector<ParamValue> args = {}) {
    return ctx_.terms().call(ctx_.declare(def_name), args);
  }

 private:
  Context& ctx_;
};

}  // namespace aadlsched::acsr
