// Arithmetic expressions and boolean guards over process parameters.
//
// ACSR definitions are *parameterized processes* (paper §3): a definition
// like Compute[e, t] may guard branches on its parameters (e < cmax) and may
// compute priorities from them. Priority expressions are what make the
// paper's dynamic-priority encodings possible: EDF uses
//     pi = dmax - (d - t)          (paper §5)
// and LLF adds the remaining-execution term. Expressions are evaluated when
// a definition call is instantiated to a ground term, so the exploration
// loop never sees them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "acsr/ids.hpp"
#include "util/flat_set.hpp"

namespace aadlsched::acsr {

enum class ExprKind : std::uint8_t {
  Const,  // value
  Param,  // parameter index within the enclosing definition
  Add,
  Sub,
  Mul,
  Div,  // integer division, division by zero evaluates to 0
  Min,
  Max,
};

struct ExprNode {
  ExprKind kind = ExprKind::Const;
  std::int32_t value = 0;  // Const: constant; Param: parameter index
  ExprId lhs = 0;
  ExprId rhs = 0;

  friend bool operator==(const ExprNode&, const ExprNode&) = default;
};

enum class CondKind : std::uint8_t {
  True,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,   // comparisons of two expressions
  And,
  Or,   // of two conditions
  Not,  // of one condition (lhs)
};

struct CondNode {
  CondKind kind = CondKind::True;
  std::uint32_t lhs = 0;  // ExprId for comparisons, CondId for connectives
  std::uint32_t rhs = 0;

  friend bool operator==(const CondNode&, const CondNode&) = default;
};

/// Interning table for expressions and conditions. Interning keeps
/// definition bodies compact and makes repeated instantiation cheap.
class ExprTable {
 public:
  ExprTable();

  ExprId constant(std::int32_t v);
  ExprId param(std::int32_t index);
  ExprId binary(ExprKind kind, ExprId lhs, ExprId rhs);

  CondId compare(CondKind kind, ExprId lhs, ExprId rhs);
  CondId logic(CondKind kind, CondId lhs, CondId rhs = 0);

  const ExprNode& expr(ExprId id) const { return exprs_[id]; }
  const CondNode& cond(CondId id) const { return conds_[id]; }

  /// Evaluate with the given parameter values. Saturating 64-bit
  /// intermediate arithmetic; result clamped to int32 range.
  std::int64_t eval(ExprId id, std::span<const ParamValue> params) const;
  bool eval_cond(CondId id, std::span<const ParamValue> params) const;

  /// Render for the pretty-printer; param names may be empty (then p0, p1,
  /// ... are used).
  std::string render(ExprId id,
                     std::span<const std::string> param_names) const;
  std::string render_cond(CondId id,
                          std::span<const std::string> param_names) const;

  std::size_t expr_count() const { return exprs_.size(); }

 private:
  ExprId intern_expr(const ExprNode& n);
  CondId intern_cond(const CondNode& n);

  std::vector<ExprNode> exprs_;
  std::vector<CondNode> conds_;
  util::FlatHashIndex expr_index_;
  util::FlatHashIndex cond_index_;
};

}  // namespace aadlsched::acsr
