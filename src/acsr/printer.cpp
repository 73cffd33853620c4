#include "acsr/printer.hpp"

#include <sstream>

#include "acsr/label.hpp"

namespace aadlsched::acsr {

namespace {

constexpr std::string_view kInfinity = "inf";

}  // namespace

std::string Printer::open_term(OpenTermId id,
                               std::span<const std::string> params) const {
  const OpenTermNode& n = ctx_.open(id);
  const ExprTable& ex = ctx_.exprs();
  std::ostringstream os;
  switch (n.kind) {
    case OpenKind::Nil:
      os << "NIL";
      break;
    case OpenKind::Act: {
      os << '{';
      for (std::size_t i = 0; i < n.action.size(); ++i) {
        if (i != 0) os << ',';
        os << '(' << ctx_.resource_name(n.action[i].resource) << ','
           << ex.render(n.action[i].priority, params) << ')';
      }
      os << "} : " << open_term(n.cont, params);
      break;
    }
    case OpenKind::Evt:
      os << '(' << ctx_.event_name(n.event) << (n.send ? '!' : '?') << ','
         << ex.render(n.priority, params) << ") . "
         << open_term(n.cont, params);
      break;
    case OpenKind::Choice: {
      os << '(';
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (i != 0) os << " + ";
        os << open_term(n.children[i], params);
      }
      os << ')';
      break;
    }
    case OpenKind::Parallel: {
      os << '(';
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (i != 0) os << " || ";
        os << open_term(n.children[i], params);
      }
      os << ')';
      break;
    }
    case OpenKind::Restrict: {
      os << '(' << open_term(n.cont, params) << ") \\ {";
      for (std::size_t i = 0; i < n.restricted.size(); ++i) {
        if (i != 0) os << ',';
        os << ctx_.event_name(n.restricted[i]);
      }
      os << '}';
      break;
    }
    case OpenKind::Scope: {
      os << "scope(" << open_term(n.cont, params) << ", "
         << ex.render(n.timeout, params);
      if (n.exception_label != 0)
        os << ", exc " << ctx_.event_name(n.exception_label) << " -> "
           << open_term(n.exception_cont, params);
      if (n.interrupt_handler != kInvalidOpenTerm)
        os << ", intr -> " << open_term(n.interrupt_handler, params);
      if (n.timeout_handler != kInvalidOpenTerm)
        os << ", timeout -> " << open_term(n.timeout_handler, params);
      os << ')';
      break;
    }
    case OpenKind::Call: {
      os << ctx_.definition(n.def).name;
      if (!n.args.empty()) {
        os << '[';
        for (std::size_t i = 0; i < n.args.size(); ++i) {
          if (i != 0) os << ", ";
          os << ex.render(n.args[i], params);
        }
        os << ']';
      }
      break;
    }
    case OpenKind::Cond:
      os << '(' << ex.render_cond(n.guard, params) << ") -> "
         << open_term(n.cont, params);
      break;
  }
  return os.str();
}

std::string Printer::ground_term(TermId id) const {
  const TermTable& tt = ctx_.terms();
  const TermNode& n = tt.node(id);
  std::ostringstream os;
  switch (n.kind) {
    case TermKind::Nil:
      os << "NIL";
      break;
    case TermKind::Act:
      os << render_action(ctx_, n.a) << " : " << ground_term(n.b);
      break;
    case TermKind::Evt:
      os << '(' << ctx_.event_name(n.a) << (n.flag ? '!' : '?') << ','
         << static_cast<Priority>(n.c) << ") . " << ground_term(n.b);
      break;
    case TermKind::Choice: {
      const auto p = tt.payload(id);
      os << '(';
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (i != 0) os << " + ";
        os << ground_term(p[i]);
      }
      os << ')';
      break;
    }
    case TermKind::Parallel: {
      const auto p = tt.payload(id);
      os << '(';
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (i != 0) os << " || ";
        os << ground_term(p[i]);
      }
      os << ')';
      break;
    }
    case TermKind::Restrict: {
      const std::span<const Event> es = ctx_.event_sets().events(n.a);
      os << '(' << ground_term(n.b) << ") \\ {";
      for (std::size_t i = 0; i < es.size(); ++i) {
        if (i != 0) os << ',';
        os << ctx_.event_name(es[i]);
      }
      os << '}';
      break;
    }
    case TermKind::Scope: {
      const ScopeParts parts = tt.scope_parts(id);
      os << "scope(" << ground_term(parts.body) << ", ";
      if (parts.time_left == kInfiniteTime)
        os << kInfinity;
      else
        os << parts.time_left;
      if (parts.exception_label != 0)
        os << ", exc " << ctx_.event_name(parts.exception_label) << " -> "
           << (parts.exception_cont == kInvalidTerm
                   ? "NIL"
                   : ground_term(parts.exception_cont));
      if (parts.interrupt_handler != kInvalidTerm)
        os << ", intr -> " << ground_term(parts.interrupt_handler);
      if (parts.timeout_handler != kInvalidTerm)
        os << ", timeout -> " << ground_term(parts.timeout_handler);
      os << ')';
      break;
    }
    case TermKind::Call: {
      os << ctx_.definition(n.a).name;
      const auto p = tt.payload(id);
      if (!p.empty()) {
        os << '[';
        for (std::size_t i = 0; i < p.size(); ++i) {
          if (i != 0) os << ", ";
          os << static_cast<ParamValue>(p[i]);
        }
        os << ']';
      }
      break;
    }
  }
  return os.str();
}

std::string Printer::definition(DefId id) const {
  const Definition& d = ctx_.definition(id);
  std::ostringstream os;
  os << d.name;
  if (!d.params.empty()) {
    os << '[';
    for (std::size_t i = 0; i < d.params.size(); ++i) {
      if (i != 0) os << ", ";
      os << d.params[i];
    }
    os << ']';
  }
  os << " = ";
  if (d.body == kInvalidOpenTerm)
    os << "<undefined>";
  else
    os << open_term(d.body, d.params);
  return os.str();
}

std::string Printer::module() const {
  std::ostringstream os;
  for (DefId i = 0; i < ctx_.definition_count(); ++i)
    os << definition(i) << "\n";
  return os.str();
}

}  // namespace aadlsched::acsr
