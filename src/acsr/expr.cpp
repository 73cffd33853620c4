#include "acsr/expr.hpp"

#include <algorithm>
#include <limits>

#include "util/hash.hpp"

namespace aadlsched::acsr {

namespace {

std::uint64_t hash_expr(const ExprNode& n) {
  std::uint64_t h = util::mix64(static_cast<std::uint64_t>(n.kind));
  h = util::hash_combine(h, static_cast<std::uint32_t>(n.value));
  h = util::hash_combine(h, n.lhs);
  return util::hash_combine(h, n.rhs);
}

std::uint64_t hash_cond(const CondNode& n) {
  std::uint64_t h = util::mix64(0x517cc1b727220a95ULL +
                                static_cast<std::uint64_t>(n.kind));
  h = util::hash_combine(h, n.lhs);
  return util::hash_combine(h, n.rhs);
}

std::int64_t clamp32(std::int64_t v) {
  return std::clamp<std::int64_t>(v,
                                  std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::max());
}

}  // namespace

ExprTable::ExprTable() {
  // CondId 0 is reserved for the trivially-true guard.
  conds_.push_back(CondNode{CondKind::True, 0, 0});
  cond_index_.insert(hash_cond(conds_[0]), kCondTrue);
}

ExprId ExprTable::intern_expr(const ExprNode& n) {
  const std::uint64_t h = hash_expr(n);
  const ExprId hit =
      expr_index_.find(h, [&](ExprId id) { return exprs_[id] == n; });
  if (hit != util::kFlatEmptySlot) return hit;
  const ExprId id = static_cast<ExprId>(exprs_.size());
  exprs_.push_back(n);
  expr_index_.insert(h, id);
  return id;
}

CondId ExprTable::intern_cond(const CondNode& n) {
  const std::uint64_t h = hash_cond(n);
  const CondId hit =
      cond_index_.find(h, [&](CondId id) { return conds_[id] == n; });
  if (hit != util::kFlatEmptySlot) return hit;
  const CondId id = static_cast<CondId>(conds_.size());
  conds_.push_back(n);
  cond_index_.insert(h, id);
  return id;
}

ExprId ExprTable::constant(std::int32_t v) {
  return intern_expr(ExprNode{ExprKind::Const, v, 0, 0});
}

ExprId ExprTable::param(std::int32_t index) {
  return intern_expr(ExprNode{ExprKind::Param, index, 0, 0});
}

ExprId ExprTable::binary(ExprKind kind, ExprId lhs, ExprId rhs) {
  // Constant-fold eagerly; bodies built by the translator are full of
  // (param + const) shapes that never fold, but the tests build plenty of
  // constant arithmetic.
  const ExprNode& l = exprs_[lhs];
  const ExprNode& r = exprs_[rhs];
  if (l.kind == ExprKind::Const && r.kind == ExprKind::Const) {
    ExprNode folded{ExprKind::Const, 0, 0, 0};
    const std::int64_t a = l.value, b = r.value;
    std::int64_t v = 0;
    switch (kind) {
      case ExprKind::Add: v = a + b; break;
      case ExprKind::Sub: v = a - b; break;
      case ExprKind::Mul: v = a * b; break;
      case ExprKind::Div: v = b == 0 ? 0 : a / b; break;
      case ExprKind::Min: v = std::min(a, b); break;
      case ExprKind::Max: v = std::max(a, b); break;
      default: v = 0; break;
    }
    folded.value = static_cast<std::int32_t>(clamp32(v));
    return intern_expr(folded);
  }
  return intern_expr(ExprNode{kind, 0, lhs, rhs});
}

CondId ExprTable::compare(CondKind kind, ExprId lhs, ExprId rhs) {
  return intern_cond(CondNode{kind, lhs, rhs});
}

CondId ExprTable::logic(CondKind kind, CondId lhs, CondId rhs) {
  return intern_cond(CondNode{kind, lhs, rhs});
}

std::int64_t ExprTable::eval(ExprId id,
                             std::span<const ParamValue> params) const {
  const ExprNode& n = exprs_[id];
  switch (n.kind) {
    case ExprKind::Const:
      return n.value;
    case ExprKind::Param:
      return n.value >= 0 &&
                     static_cast<std::size_t>(n.value) < params.size()
                 ? params[static_cast<std::size_t>(n.value)]
                 : 0;
    default:
      break;
  }
  const std::int64_t a = eval(n.lhs, params);
  const std::int64_t b = eval(n.rhs, params);
  switch (n.kind) {
    case ExprKind::Add: return clamp32(a + b);
    case ExprKind::Sub: return clamp32(a - b);
    case ExprKind::Mul: return clamp32(a * b);
    case ExprKind::Div: return b == 0 ? 0 : clamp32(a / b);
    case ExprKind::Min: return std::min(a, b);
    case ExprKind::Max: return std::max(a, b);
    default: return 0;
  }
}

bool ExprTable::eval_cond(CondId id,
                          std::span<const ParamValue> params) const {
  const CondNode& n = conds_[id];
  switch (n.kind) {
    case CondKind::True:
      return true;
    case CondKind::And:
      return eval_cond(n.lhs, params) && eval_cond(n.rhs, params);
    case CondKind::Or:
      return eval_cond(n.lhs, params) || eval_cond(n.rhs, params);
    case CondKind::Not:
      return !eval_cond(n.lhs, params);
    default:
      break;
  }
  const std::int64_t a = eval(n.lhs, params);
  const std::int64_t b = eval(n.rhs, params);
  switch (n.kind) {
    case CondKind::Lt: return a < b;
    case CondKind::Le: return a <= b;
    case CondKind::Gt: return a > b;
    case CondKind::Ge: return a >= b;
    case CondKind::Eq: return a == b;
    case CondKind::Ne: return a != b;
    default: return true;
  }
}

namespace {
std::string param_name(std::span<const std::string> names, std::int32_t i) {
  if (i >= 0 && static_cast<std::size_t>(i) < names.size() &&
      !names[static_cast<std::size_t>(i)].empty())
    return names[static_cast<std::size_t>(i)];
  return "p" + std::to_string(i);
}
}  // namespace

std::string ExprTable::render(ExprId id,
                              std::span<const std::string> names) const {
  const ExprNode& n = exprs_[id];
  switch (n.kind) {
    case ExprKind::Const:
      return std::to_string(n.value);
    case ExprKind::Param:
      return param_name(names, n.value);
    case ExprKind::Min:
      return "min(" + render(n.lhs, names) + ", " + render(n.rhs, names) +
             ")";
    case ExprKind::Max:
      return "max(" + render(n.lhs, names) + ", " + render(n.rhs, names) +
             ")";
    default:
      break;
  }
  const char* op = "?";
  switch (n.kind) {
    case ExprKind::Add: op = " + "; break;
    case ExprKind::Sub: op = " - "; break;
    case ExprKind::Mul: op = " * "; break;
    case ExprKind::Div: op = " / "; break;
    default: break;
  }
  return "(" + render(n.lhs, names) + op + render(n.rhs, names) + ")";
}

std::string ExprTable::render_cond(CondId id,
                                   std::span<const std::string> names) const {
  const CondNode& n = conds_[id];
  switch (n.kind) {
    case CondKind::True:
      return "true";
    case CondKind::And:
      return "(" + render_cond(n.lhs, names) + " && " +
             render_cond(n.rhs, names) + ")";
    case CondKind::Or:
      return "(" + render_cond(n.lhs, names) + " || " +
             render_cond(n.rhs, names) + ")";
    case CondKind::Not:
      return "!(" + render_cond(n.lhs, names) + ")";
    default:
      break;
  }
  const char* op = "?";
  switch (n.kind) {
    case CondKind::Lt: op = " < "; break;
    case CondKind::Le: op = " <= "; break;
    case CondKind::Gt: op = " > "; break;
    case CondKind::Ge: op = " >= "; break;
    case CondKind::Eq: op = " == "; break;
    case CondKind::Ne: op = " != "; break;
    default: break;
  }
  return render(n.lhs, names) + op + render(n.rhs, names);
}

}  // namespace aadlsched::acsr
