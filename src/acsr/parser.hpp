// Parser for the VERSA-flavoured ACSR concrete syntax emitted by Printer.
//
// module     ::= definition*
// definition ::= NAME [ '[' NAME (',' NAME)* ']' ] '=' term
// term       ::= par
// par        ::= sum ('||' sum)*
// sum        ::= prefix ('+' prefix)*
// prefix     ::= primary [ '\' '{' NAME (',' NAME)* '}' ]
// primary    ::= 'NIL'
//              | '{' uses '}' ':' prefix                (timed action)
//              | '(' NAME ('!'|'?') ',' expr ')' '.' prefix   (event)
//              | '(' cond ')' '->' prefix               (guard)
//              | '(' term ')'
//              | 'scope' '(' term ',' expr scope-tail ')'
//              | NAME [ '[' expr (',' expr)* ']' ]      (call)
//
// '(' is ambiguous between event prefix, guard and grouping; the parser
// resolves it with bounded backtracking. Priorities/guards may reference
// the parameters of the enclosing definition by name.
//
// It reads whole modules only: the tests and the `--acsr` dump contract
// rely on Printer output parsing back.
#pragma once

#include <string_view>

#include "acsr/context.hpp"
#include "util/diagnostics.hpp"

namespace aadlsched::acsr {

/// Parse a module of definitions into `ctx`. Returns true on success;
/// errors are reported into `diags`.
bool parse_module(Context& ctx, std::string_view source,
                  util::DiagnosticEngine& diags);

}  // namespace aadlsched::acsr
