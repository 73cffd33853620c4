#include "acsr/parser.hpp"

#include <cctype>
#include <optional>
#include <string>
#include <vector>

namespace aadlsched::acsr {

namespace {

enum class Tok : std::uint8_t {
  End,
  Ident,
  Int,
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Comma,
  Plus,
  Minus,
  Star,
  Slash,
  Colon,
  Dot,
  Bang,
  Question,
  Assign,     // =
  Arrow,      // ->
  ParBar,     // ||
  AndAnd,     // &&
  Backslash,  // \  (restriction)
  Lt,
  Le,
  Gt,
  Ge,
  EqEq,
  Ne,
  Not,  // ! used in conditions is Bang as well; disambiguated in context
};

struct Token {
  Tok kind = Tok::End;
  std::string_view text;
  std::int64_t value = 0;
  util::SourceLoc loc;
};

class Lexer {
 public:
  Lexer(std::string_view src, util::DiagnosticEngine& diags)
      : src_(src), diags_(diags) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    while (true) {
      Token t = next();
      out.push_back(t);
      if (t.kind == Tok::End) break;
    }
    return out;
  }

 private:
  util::SourceLoc loc() const { return {line_, col_}; }

  char peek(std::size_t k = 0) const {
    return pos_ + k < src_.size() ? src_[pos_ + k] : '\0';
  }

  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void skip_ws() {
    while (pos_ < src_.size()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '#' || (c == '/' && peek(1) == '/')) {
        while (pos_ < src_.size() && peek() != '\n') advance();
      } else {
        break;
      }
    }
  }

  Token next() {
    skip_ws();
    Token t;
    t.loc = loc();
    if (pos_ >= src_.size()) return t;
    const std::size_t start = pos_;
    const char c = advance();
    const auto two = [&](char second, Tok yes, Tok no) {
      if (peek() == second) {
        advance();
        t.kind = yes;
      } else {
        t.kind = no;
      }
    };
    switch (c) {
      case '(': t.kind = Tok::LParen; break;
      case ')': t.kind = Tok::RParen; break;
      case '{': t.kind = Tok::LBrace; break;
      case '}': t.kind = Tok::RBrace; break;
      case '[': t.kind = Tok::LBracket; break;
      case ']': t.kind = Tok::RBracket; break;
      case ',': t.kind = Tok::Comma; break;
      case '+': t.kind = Tok::Plus; break;
      case '*': t.kind = Tok::Star; break;
      case '/': t.kind = Tok::Slash; break;
      case ':': t.kind = Tok::Colon; break;
      case '.': t.kind = Tok::Dot; break;
      case '?': t.kind = Tok::Question; break;
      case '\\': t.kind = Tok::Backslash; break;
      case '-': two('>', Tok::Arrow, Tok::Minus); break;
      case '|': two('|', Tok::ParBar, Tok::ParBar); break;
      case '&': two('&', Tok::AndAnd, Tok::AndAnd); break;
      case '=': two('=', Tok::EqEq, Tok::Assign); break;
      case '<': two('=', Tok::Le, Tok::Lt); break;
      case '>': two('=', Tok::Ge, Tok::Gt); break;
      case '!': two('=', Tok::Ne, Tok::Bang); break;
      default:
        if (std::isdigit(static_cast<unsigned char>(c))) {
          std::int64_t v = c - '0';
          while (std::isdigit(static_cast<unsigned char>(peek())))
            v = v * 10 + (advance() - '0');
          t.kind = Tok::Int;
          t.value = v;
        } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
          while (std::isalnum(static_cast<unsigned char>(peek())) ||
                 peek() == '_')
            advance();
          t.kind = Tok::Ident;
        } else {
          diags_.error(t.loc, std::string("unexpected character '") + c +
                                  "' in ACSR input");
          return next();
        }
        break;
    }
    t.text = src_.substr(start, pos_ - start);
    return t;
  }

  std::string_view src_;
  util::DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
};

class Parser {
 public:
  Parser(Context& ctx, std::vector<Token> tokens,
         util::DiagnosticEngine& diags)
      : ctx_(ctx), toks_(std::move(tokens)), diags_(diags) {}

  bool module() {
    while (!at(Tok::End)) {
      if (!definition()) return false;
    }
    return !diags_.has_errors();
  }

 private:
  // --- token plumbing ----------------------------------------------------
  const Token& cur() const { return toks_[i_]; }
  bool at(Tok k) const { return cur().kind == k; }
  bool at_kw(std::string_view kw) const {
    return at(Tok::Ident) && cur().text == kw;
  }
  Token eat() { return toks_[i_++]; }
  bool accept(Tok k) {
    if (!at(k)) return false;
    ++i_;
    return true;
  }
  bool expect(Tok k, std::string_view what) {
    if (accept(k)) return true;
    err(cur().loc, "expected " + std::string(what) + ", found '" +
                                std::string(cur().text) + "'");
    return false;
  }
  std::size_t mark() const { return i_; }
  void rewind(std::size_t m) { i_ = m; }

  /// Diagnostic report that is silenced during speculative parses.
  void err(util::SourceLoc loc, std::string message) {
    if (speculating_ == 0) diags_.error(loc, std::move(message));
  }

  // --- expressions over the current definition's parameters --------------
  std::optional<ExprId> expr() { return expr_add(); }

  std::optional<ExprId> expr_add() {
    auto lhs = expr_mul();
    if (!lhs) return std::nullopt;
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const bool add = eat().kind == Tok::Plus;
      auto rhs = expr_mul();
      if (!rhs) return std::nullopt;
      lhs = ctx_.exprs().binary(add ? ExprKind::Add : ExprKind::Sub, *lhs,
                                *rhs);
    }
    return lhs;
  }

  std::optional<ExprId> expr_mul() {
    auto lhs = expr_atom();
    if (!lhs) return std::nullopt;
    while (at(Tok::Star) || at(Tok::Slash)) {
      const bool mul = eat().kind == Tok::Star;
      auto rhs = expr_atom();
      if (!rhs) return std::nullopt;
      lhs = ctx_.exprs().binary(mul ? ExprKind::Mul : ExprKind::Div, *lhs,
                                *rhs);
    }
    return lhs;
  }

  std::optional<ExprId> expr_atom() {
    if (at(Tok::Int)) {
      return ctx_.exprs().constant(static_cast<std::int32_t>(eat().value));
    }
    if (at(Tok::Minus)) {
      eat();
      auto inner = expr_atom();
      if (!inner) return std::nullopt;
      return ctx_.exprs().binary(ExprKind::Sub, ctx_.exprs().constant(0),
                                 *inner);
    }
    if (at(Tok::LParen)) {
      eat();
      auto inner = expr();
      if (!inner || !expect(Tok::RParen, "')'")) return std::nullopt;
      return inner;
    }
    if (at(Tok::Ident)) {
      const Token t = eat();
      if (t.text == "inf") return ctx_.exprs().constant(-1);
      if ((t.text == "min" || t.text == "max") && at(Tok::LParen)) {
        eat();
        auto a = expr();
        if (!a || !expect(Tok::Comma, "','")) return std::nullopt;
        auto b = expr();
        if (!b || !expect(Tok::RParen, "')'")) return std::nullopt;
        return ctx_.exprs().binary(
            t.text == "min" ? ExprKind::Min : ExprKind::Max, *a, *b);
      }
      // Parameter reference.
      for (std::size_t k = 0; k < params_.size(); ++k) {
        if (params_[k] == t.text)
          return ctx_.exprs().param(static_cast<std::int32_t>(k));
      }
      err(t.loc, "unknown parameter '" + std::string(t.text) + "'");
      return std::nullopt;
    }
    err(cur().loc, "expected expression, found '" +
                                std::string(cur().text) + "'");
    return std::nullopt;
  }

  // --- conditions ----------------------------------------------------------
  std::optional<CondId> cond() {
    auto lhs = cond_atom();
    if (!lhs) return std::nullopt;
    while (at(Tok::AndAnd) || at(Tok::ParBar)) {
      const bool conj = eat().kind == Tok::AndAnd;
      auto rhs = cond_atom();
      if (!rhs) return std::nullopt;
      lhs = ctx_.exprs().logic(conj ? CondKind::And : CondKind::Or, *lhs,
                               *rhs);
    }
    return lhs;
  }

  std::optional<CondId> cond_atom() {
    if (at_kw("true")) {
      eat();
      return kCondTrue;
    }
    if (at(Tok::Bang)) {
      eat();
      auto inner = cond_atom();
      if (!inner) return std::nullopt;
      return ctx_.exprs().logic(CondKind::Not, *inner);
    }
    if (at(Tok::LParen)) {
      const std::size_t m = mark();
      eat();
      if (auto inner = cond(); inner && accept(Tok::RParen)) return inner;
      rewind(m);
    }
    auto lhs = expr();
    if (!lhs) return std::nullopt;
    CondKind k;
    switch (cur().kind) {
      case Tok::Lt: k = CondKind::Lt; break;
      case Tok::Le: k = CondKind::Le; break;
      case Tok::Gt: k = CondKind::Gt; break;
      case Tok::Ge: k = CondKind::Ge; break;
      case Tok::EqEq: k = CondKind::Eq; break;
      case Tok::Ne: k = CondKind::Ne; break;
      default:
        err(cur().loc, "expected comparison operator");
        return std::nullopt;
    }
    eat();
    auto rhs = expr();
    if (!rhs) return std::nullopt;
    return ctx_.exprs().compare(k, *lhs, *rhs);
  }

  // --- terms -----------------------------------------------------------
  std::optional<OpenTermId> term() { return term_par(); }

  std::optional<OpenTermId> term_par() {
    auto lhs = term_sum();
    if (!lhs) return std::nullopt;
    if (!at(Tok::ParBar)) return lhs;
    std::vector<OpenTermId> procs{*lhs};
    while (accept(Tok::ParBar)) {
      auto rhs = term_sum();
      if (!rhs) return std::nullopt;
      procs.push_back(*rhs);
    }
    return ctx_.o_parallel(std::move(procs));
  }

  std::optional<OpenTermId> term_sum() {
    auto lhs = term_prefix();
    if (!lhs) return std::nullopt;
    if (!at(Tok::Plus)) return lhs;
    std::vector<OpenTermId> alts{*lhs};
    while (accept(Tok::Plus)) {
      auto rhs = term_prefix();
      if (!rhs) return std::nullopt;
      alts.push_back(*rhs);
    }
    return ctx_.o_choice(std::move(alts));
  }

  std::optional<OpenTermId> term_prefix() {
    auto base = term_primary();
    if (!base) return std::nullopt;
    while (at(Tok::Backslash)) {
      eat();
      if (!expect(Tok::LBrace, "'{'")) return std::nullopt;
      std::vector<Event> events;
      if (!at(Tok::RBrace)) {
        do {
          if (!at(Tok::Ident)) {
            err(cur().loc, "expected event name");
            return std::nullopt;
          }
          events.push_back(ctx_.event(eat().text));
        } while (accept(Tok::Comma));
      }
      if (!expect(Tok::RBrace, "'}'")) return std::nullopt;
      base = ctx_.o_restrict(std::move(events), *base);
    }
    return base;
  }

  std::optional<OpenTermId> term_primary() {
    if (at_kw("NIL")) {
      eat();
      return ctx_.o_nil();
    }
    if (at_kw("scope")) return term_scope();
    if (at(Tok::LBrace)) return term_action();
    if (at(Tok::LParen)) return term_paren();
    if (at(Tok::Ident)) return term_call();
    err(cur().loc, "expected process term, found '" +
                                std::string(cur().text) + "'");
    return std::nullopt;
  }

  // '{' (res, prio) ... '}' ':' prefix
  std::optional<OpenTermId> term_action() {
    expect(Tok::LBrace, "'{'");
    std::vector<OpenResourceUse> uses;
    if (!at(Tok::RBrace)) {
      do {
        if (!expect(Tok::LParen, "'('")) return std::nullopt;
        if (!at(Tok::Ident)) {
          err(cur().loc, "expected resource name");
          return std::nullopt;
        }
        const Resource r = ctx_.resource(eat().text);
        if (!expect(Tok::Comma, "','")) return std::nullopt;
        auto prio = expr();
        if (!prio || !expect(Tok::RParen, "')'")) return std::nullopt;
        uses.push_back(OpenResourceUse{r, *prio});
      } while (accept(Tok::Comma));
    }
    if (!expect(Tok::RBrace, "'}'")) return std::nullopt;
    if (!expect(Tok::Colon, "':'")) return std::nullopt;
    auto cont = term_prefix();
    if (!cont) return std::nullopt;
    return ctx_.o_act(std::move(uses), *cont);
  }

  // '(': event prefix, guard, or grouping — resolved by backtracking.
  std::optional<OpenTermId> term_paren() {
    const std::size_t m = mark();
    eat();  // '('

    // Attempt 1: event prefix "(name!|?, prio) . cont".
    if (at(Tok::Ident)) {
      const Token name = eat();
      if (at(Tok::Bang) || at(Tok::Question)) {
        const bool send = eat().kind == Tok::Bang;
        if (accept(Tok::Comma)) {
          auto prio = expr();
          if (prio && accept(Tok::RParen) && accept(Tok::Dot)) {
            auto cont = term_prefix();
            if (!cont) return std::nullopt;
            return ctx_.o_evt(ctx_.event(name.text), send, *prio, *cont);
          }
        }
        rewind(m);
        err(name.loc, "malformed event prefix");
        return std::nullopt;
      }
      rewind(m);
    } else {
      rewind(m);
    }

    // Attempt 2: guard "(cond) -> term" — speculative, errors suppressed
    // while speculating so a failed attempt leaves no diagnostics behind.
    {
      const std::size_t m2 = mark();
      eat();  // '('
      ++speculating_;
      auto g = cond();
      const bool ok = g && accept(Tok::RParen) && accept(Tok::Arrow);
      --speculating_;
      if (ok) {
        auto body = term_prefix();
        if (!body) return std::nullopt;
        return ctx_.o_cond(*g, *body);
      }
      rewind(m2);
    }

    // Attempt 3: grouping.
    eat();  // '('
    auto inner = term();
    if (!inner || !expect(Tok::RParen, "')'")) return std::nullopt;
    return inner;
  }

  std::optional<OpenTermId> term_scope() {
    eat();  // 'scope'
    if (!expect(Tok::LParen, "'('")) return std::nullopt;
    auto body = term();
    if (!body || !expect(Tok::Comma, "','")) return std::nullopt;
    auto timeout = expr();
    if (!timeout) return std::nullopt;
    Event exc = 0;
    OpenTermId exc_cont = kInvalidOpenTerm;
    OpenTermId intr = kInvalidOpenTerm;
    OpenTermId tmo = kInvalidOpenTerm;
    while (accept(Tok::Comma)) {
      if (at_kw("exc")) {
        eat();
        if (!at(Tok::Ident)) {
          err(cur().loc, "expected exception event name");
          return std::nullopt;
        }
        exc = ctx_.event(eat().text);
        if (!expect(Tok::Arrow, "'->'")) return std::nullopt;
        auto t = term_prefix();
        if (!t) return std::nullopt;
        exc_cont = *t;
      } else if (at_kw("intr")) {
        eat();
        if (!expect(Tok::Arrow, "'->'")) return std::nullopt;
        auto t = term_prefix();
        if (!t) return std::nullopt;
        intr = *t;
      } else if (at_kw("timeout")) {
        eat();
        if (!expect(Tok::Arrow, "'->'")) return std::nullopt;
        auto t = term_prefix();
        if (!t) return std::nullopt;
        tmo = *t;
      } else {
        err(cur().loc, "expected 'exc', 'intr' or 'timeout'");
        return std::nullopt;
      }
    }
    if (!expect(Tok::RParen, "')'")) return std::nullopt;
    return ctx_.o_scope(*body, *timeout, exc, exc_cont, intr, tmo);
  }

  std::optional<OpenTermId> term_call() {
    const Token name = eat();
    std::vector<ExprId> args;
    if (accept(Tok::LBracket)) {
      do {
        auto a = expr();
        if (!a) return std::nullopt;
        args.push_back(*a);
      } while (accept(Tok::Comma));
      if (!expect(Tok::RBracket, "']'")) return std::nullopt;
    }
    return ctx_.o_call(ctx_.declare(name.text), std::move(args));
  }

  // --- definitions ---------------------------------------------------------
  bool definition() {
    if (!at(Tok::Ident)) {
      err(cur().loc, "expected process name");
      return false;
    }
    const Token name = eat();
    params_.clear();
    if (accept(Tok::LBracket)) {
      do {
        if (!at(Tok::Ident)) {
          err(cur().loc, "expected parameter name");
          return false;
        }
        params_.emplace_back(eat().text);
      } while (accept(Tok::Comma));
      if (!expect(Tok::RBracket, "']'")) return false;
    }
    if (!expect(Tok::Assign, "'='")) return false;
    auto body = term();
    if (!body) return false;
    Definition d;
    d.name = std::string(name.text);
    d.params = params_;
    d.body = *body;
    ctx_.define(ctx_.declare(name.text), std::move(d));
    return true;
  }

  Context& ctx_;
  std::vector<Token> toks_;
  util::DiagnosticEngine& diags_;
  std::size_t i_ = 0;
  std::vector<std::string> params_;
  int speculating_ = 0;
};

}  // namespace

bool parse_module(Context& ctx, std::string_view source,
                  util::DiagnosticEngine& diags) {
  Lexer lexer(source, diags);
  Parser parser(ctx, lexer.run(), diags);
  return parser.module();
}

}  // namespace aadlsched::acsr
