#include "aadl/parser.hpp"

#include <optional>

#include "aadl/lexer.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::aadl {

namespace {

using util::iequals;
using util::to_lower;

class Parser {
 public:
  Parser(Model& model, std::vector<AadlToken> toks,
         util::DiagnosticEngine& diags)
      : model_(model), toks_(std::move(toks)), diags_(diags) {}

  bool run() {
    while (!at_end()) {
      if (at_kw("package")) {
        parse_package();
      } else {
        error("expected 'package'");
        return false;
      }
    }
    return !diags_.has_errors();
  }

 private:
  // --- token helpers -------------------------------------------------------
  const AadlToken& cur() const { return toks_[i_]; }
  bool at_end() const { return cur().kind == TokKind::End; }
  bool at(TokKind k) const { return cur().kind == k; }
  bool at_kw(std::string_view kw) const {
    return at(TokKind::Ident) && iequals(cur().text, kw);
  }
  AadlToken eat() { return toks_[i_++]; }
  bool accept(TokKind k) {
    if (!at(k)) return false;
    ++i_;
    return true;
  }
  bool accept_kw(std::string_view kw) {
    if (!at_kw(kw)) return false;
    ++i_;
    return true;
  }
  void error(std::string msg) {
    diags_.error(cur().loc, std::move(msg) + " (found '" +
                                std::string(cur().text) + "')");
  }
  bool expect(TokKind k, std::string_view what) {
    if (accept(k)) return true;
    error("expected " + std::string(what));
    return false;
  }
  bool expect_kw(std::string_view kw) {
    if (accept_kw(kw)) return true;
    error("expected '" + std::string(kw) + "'");
    return false;
  }
  /// Error recovery: skip past the next semicolon.
  void sync() {
    while (!at_end() && !accept(TokKind::Semicolon)) ++i_;
  }

  std::optional<std::string> ident() {
    if (!at(TokKind::Ident)) {
      error("expected identifier");
      return std::nullopt;
    }
    return std::string(eat().text);
  }

  /// name or pkg::name (lowercased).
  std::optional<std::string> qualified_name() {
    auto first = ident();
    if (!first) return std::nullopt;
    std::string out = to_lower(*first);
    while (accept(TokKind::ColonColon)) {
      auto seg = ident();
      if (!seg) return std::nullopt;
      out += "::";
      out += to_lower(*seg);
    }
    return out;
  }

  /// Dotted instance path, lowercased segments.
  std::optional<std::vector<std::string>> dotted_path() {
    std::vector<std::string> out;
    auto first = ident();
    if (!first) return std::nullopt;
    out.push_back(to_lower(*first));
    while (accept(TokKind::Dot)) {
      auto seg = ident();
      if (!seg) return std::nullopt;
      out.push_back(to_lower(*seg));
    }
    return out;
  }

  std::optional<Category> category_kw() {
    static constexpr std::pair<std::string_view, Category> kMap[] = {
        {"system", Category::System},       {"process", Category::Process},
        {"thread", Category::Thread},       {"processor", Category::Processor},
        {"bus", Category::Bus},             {"device", Category::Device},
        {"data", Category::Data},           {"memory", Category::Memory},
        {"subprogram", Category::Subprogram},
    };
    for (const auto& [kw, cat] : kMap) {
      if (at_kw(kw)) {
        ++i_;
        if (cat == Category::Thread && at_kw("group")) {
          ++i_;
          return Category::ThreadGroup;
        }
        return cat;
      }
    }
    return std::nullopt;
  }

  // --- package -------------------------------------------------------------
  void parse_package() {
    expect_kw("package");
    auto name = qualified_name();
    if (!name) {
      sync();
      return;
    }
    Package& pkg = model_.packages[*name];
    pkg.name = *name;
    if (pkg.display_name.empty()) pkg.display_name = *name;
    accept_kw("public");

    while (!at_end() && !at_kw("end")) {
      if (accept_kw("private")) continue;
      if (accept_kw("with")) {  // import clause: with pkg, pkg2;
        qualified_name();
        while (accept(TokKind::Comma)) qualified_name();
        expect(TokKind::Semicolon, "';'");
        continue;
      }
      const std::size_t before = i_;
      auto cat = category_kw();
      if (!cat) {
        error("expected component declaration");
        sync();
        continue;
      }
      if (at_kw("implementation")) {
        ++i_;
        parse_impl(pkg, *cat);
      } else {
        parse_type(pkg, *cat);
      }
      if (i_ == before) ++i_;  // safety against infinite loops
    }
    expect_kw("end");
    qualified_name();
    expect(TokKind::Semicolon, "';'");
  }

  // --- component type ------------------------------------------------------
  void parse_type(Package& pkg, Category cat) {
    ComponentType ct;
    ct.category = cat;
    ct.loc = cur().loc;
    auto name = ident();
    if (!name) {
      sync();
      return;
    }
    ct.display_name = *name;
    ct.name = to_lower(*name);
    if (accept_kw("extends")) {
      auto parent = qualified_name();
      if (parent) ct.extends = *parent;
    }
    while (!at_end() && !at_kw("end")) {
      if (accept_kw("features")) {
        while (!at_end() && !at_kw("end") && !at_kw("properties") &&
               !at_kw("flows") && !at_kw("modes") && !at_kw("annex"))
          parse_feature(ct);
      } else if (accept_kw("properties")) {
        while (!at_end() && !at_kw("end") && !at_kw("annex"))
          parse_property(ct.properties);
      } else if (accept_kw("flows") || accept_kw("modes") ||
                 accept_kw("annex")) {
        // Unsupported sections are skipped declaration by declaration.
        while (!at_end() && !at_kw("end") && !at_kw("properties") &&
               !at_kw("features"))
          sync();
      } else if (accept_kw("none")) {
        expect(TokKind::Semicolon, "';'");
      } else {
        error("unexpected token in component type");
        sync();
      }
    }
    expect_kw("end");
    ident();
    expect(TokKind::Semicolon, "';'");
    pkg.types[ct.name] = std::move(ct);
  }

  void parse_feature(ComponentType& ct) {
    if (accept_kw("none")) {
      expect(TokKind::Semicolon, "';'");
      return;
    }
    Feature f;
    f.loc = cur().loc;
    auto name = ident();
    if (!name || !expect(TokKind::Colon, "':'")) {
      sync();
      return;
    }
    f.name = *name;

    if (accept_kw("requires") || at_kw("provides")) {
      f.provides = accept_kw("provides");
      if (accept_kw("bus"))
        f.kind = FeatureKind::BusAccess;
      else if (accept_kw("data"))
        f.kind = FeatureKind::DataAccess;
      else {
        error("expected 'bus' or 'data' after requires/provides");
        sync();
        return;
      }
      if (!expect_kw("access")) {
        sync();
        return;
      }
      if (at(TokKind::Ident)) {
        auto cls = qualified_name();
        if (cls) f.classifier = *cls;
      }
      expect(TokKind::Semicolon, "';'");
      ct.features.push_back(std::move(f));
      return;
    }

    if (accept_kw("in")) {
      f.direction = accept_kw("out") ? Direction::InOut : Direction::In;
    } else if (accept_kw("out")) {
      f.direction = Direction::Out;
    } else {
      error("expected 'in' or 'out'");
      sync();
      return;
    }
    const bool is_event = accept_kw("event");
    const bool is_data = accept_kw("data");
    if (!expect_kw("port")) {
      sync();
      return;
    }
    f.kind = is_event ? (is_data ? FeatureKind::EventDataPort
                                 : FeatureKind::EventPort)
                      : FeatureKind::DataPort;
    if (at(TokKind::Ident)) {
      auto cls = qualified_name();
      if (cls) f.classifier = *cls;
      // Optional dotted implementation part of the classifier.
      if (accept(TokKind::Dot)) ident();
    }
    // Optional property block on the feature: { Prop => V; ... }
    if (accept(TokKind::LBrace)) {
      while (!at_end() && !accept(TokKind::RBrace)) {
        std::vector<PropertyAssociation> props;
        parse_property(props);
        for (auto& p : props) {
          p.applies_to.push_back({to_lower(f.name)});
          ct.properties.push_back(std::move(p));
        }
      }
    }
    expect(TokKind::Semicolon, "';'");
    ct.features.push_back(std::move(f));
  }

  // --- component implementation -------------------------------------------
  void parse_impl(Package& pkg, Category cat) {
    ComponentImpl im;
    im.category = cat;
    im.loc = cur().loc;
    auto tname = ident();
    if (!tname || !expect(TokKind::Dot, "'.'")) {
      sync();
      return;
    }
    auto iname = ident();
    if (!iname) {
      sync();
      return;
    }
    im.type_name = to_lower(*tname);
    im.impl_name = im.type_name + "." + to_lower(*iname);
    im.display_name = *tname + "." + *iname;

    while (!at_end() && !at_kw("end")) {
      if (accept_kw("subcomponents")) {
        while (!at_end() && !at_section_start()) parse_subcomponent(im);
      } else if (accept_kw("connections")) {
        while (!at_end() && !at_section_start()) parse_connection(im);
      } else if (accept_kw("properties")) {
        while (!at_end() && !at_section_start()) parse_property(im.properties);
      } else if (accept_kw("modes")) {
        while (!at_end() && !at_section_start()) parse_mode(im);
      } else if (accept_kw("calls") || accept_kw("flows") ||
                 accept_kw("annex")) {
        while (!at_end() && !at_section_start()) sync();
      } else if (accept_kw("none")) {
        expect(TokKind::Semicolon, "';'");
      } else {
        error("unexpected token in component implementation");
        sync();
      }
    }
    expect_kw("end");
    ident();
    if (accept(TokKind::Dot)) ident();
    expect(TokKind::Semicolon, "';'");
    pkg.impls[im.impl_name] = std::move(im);
  }

  bool at_section_start() const {
    return at_kw("end") || at_kw("subcomponents") || at_kw("connections") ||
           at_kw("properties") || at_kw("modes") || at_kw("calls") ||
           at_kw("flows") || at_kw("annex");
  }

  void parse_subcomponent(ComponentImpl& im) {
    if (accept_kw("none")) {
      expect(TokKind::Semicolon, "';'");
      return;
    }
    Subcomponent sc;
    sc.loc = cur().loc;
    auto name = ident();
    if (!name || !expect(TokKind::Colon, "':'")) {
      sync();
      return;
    }
    sc.name = to_lower(*name);
    auto cat = category_kw();
    if (!cat) {
      error("expected component category");
      sync();
      return;
    }
    sc.category = *cat;
    if (at(TokKind::Ident)) {
      auto cls = qualified_name();
      if (!cls) {
        sync();
        return;
      }
      sc.classifier = *cls;
      if (accept(TokKind::Dot)) {
        auto impl = ident();
        if (impl) sc.classifier += util::concat({".", to_lower(*impl)});
      }
    }
    // Optional "in modes (...)" — parsed and ignored (paper §4: modes are
    // out of scope for the translation).
    if (accept_kw("in")) {
      expect_kw("modes");
      if (accept(TokKind::LParen)) {
        while (!at_end() && !accept(TokKind::RParen)) ++i_;
      }
    }
    expect(TokKind::Semicolon, "';'");
    im.subcomponents.push_back(std::move(sc));
  }

  void parse_connection(ComponentImpl& im) {
    if (accept_kw("none")) {
      expect(TokKind::Semicolon, "';'");
      return;
    }
    ConnectionDecl cd;
    cd.loc = cur().loc;
    auto name = ident();
    if (!name || !expect(TokKind::Colon, "':'")) {
      sync();
      return;
    }
    cd.name = to_lower(*name);
    // Optional connection-kind keywords.
    if (accept_kw("port")) {
      cd.kind = std::nullopt;  // generic port connection
    } else if (at_kw("event") || at_kw("data") || at_kw("bus")) {
      const bool ev = accept_kw("event");
      const bool bus = !ev && accept_kw("bus");
      const bool data = accept_kw("data");
      if (bus) {
        expect_kw("access");
        cd.kind = FeatureKind::BusAccess;
      } else if (ev) {
        if (data) {
          expect_kw("port");
          cd.kind = FeatureKind::EventDataPort;
        } else {
          expect_kw("port");
          cd.kind = FeatureKind::EventPort;
        }
      } else if (data) {
        if (accept_kw("access"))
          cd.kind = FeatureKind::DataAccess;
        else {
          expect_kw("port");
          cd.kind = FeatureKind::DataPort;
        }
      }
    }
    auto src = dotted_path();
    if (!src) {
      sync();
      return;
    }
    cd.source = *src;
    if (accept(TokKind::Arrow)) {
      cd.bidirectional = false;
    } else if (accept(TokKind::BiArrow)) {
      cd.bidirectional = true;
    } else {
      error("expected '->' or '<->'");
      sync();
      return;
    }
    auto dst = dotted_path();
    if (!dst) {
      sync();
      return;
    }
    cd.destination = *dst;
    if (accept_kw("in")) {
      expect_kw("modes");
      if (accept(TokKind::LParen)) {
        while (!at_end() && !accept(TokKind::RParen)) ++i_;
      }
    }
    // Optional property block: { Prop => V; ... }
    if (accept(TokKind::LBrace)) {
      while (!at_end() && !accept(TokKind::RBrace)) {
        std::vector<PropertyAssociation> props;
        parse_property(props);
        for (auto& p : props) {
          p.applies_to.push_back({cd.name});
          im.properties.push_back(std::move(p));
        }
      }
    }
    expect(TokKind::Semicolon, "';'");
    im.connections.push_back(std::move(cd));
  }

  void parse_mode(ComponentImpl& im) {
    if (accept_kw("none")) {
      expect(TokKind::Semicolon, "';'");
      return;
    }
    // mode decl: name : [initial] mode ;   transition: src -[...]-> dst ;
    // We keep declarations, and skip transitions (modes are not translated).
    auto name = ident();
    if (!name) {
      sync();
      return;
    }
    if (accept(TokKind::Colon)) {
      ModeDecl md;
      md.name = to_lower(*name);
      md.initial = accept_kw("initial");
      expect_kw("mode");
      expect(TokKind::Semicolon, "';'");
      im.modes.push_back(std::move(md));
    } else {
      sync();  // a transition or something else mode-related
    }
  }

  // --- properties ----------------------------------------------------------
  void parse_property(std::vector<PropertyAssociation>& out) {
    if (accept_kw("none")) {
      expect(TokKind::Semicolon, "';'");
      return;
    }
    PropertyAssociation pa;
    pa.loc = cur().loc;
    auto name = qualified_name();
    if (!name) {
      sync();
      return;
    }
    pa.name = *name;
    if (!accept(TokKind::Assoc) && !accept(TokKind::AppendAssoc)) {
      error("expected '=>'");
      sync();
      return;
    }
    auto value = parse_property_value();
    if (!value) {
      sync();
      return;
    }
    pa.value = std::move(*value);
    if (accept_kw("applies")) {
      if (!expect_kw("to")) {
        sync();
        return;
      }
      do {
        auto path = dotted_path();
        if (!path) {
          sync();
          return;
        }
        pa.applies_to.push_back(std::move(*path));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::Semicolon, "';'");
    out.push_back(std::move(pa));
  }

  std::optional<PropertyValue> parse_property_value() {
    auto first = parse_property_atom();
    if (!first) return std::nullopt;
    if (accept(TokKind::DotDot)) {
      auto second = parse_property_atom();
      if (!second) return std::nullopt;
      if (!first->is_int() || !second->is_int()) {
        error("range bounds must be numeric");
        return std::nullopt;
      }
      PropertyValue pv;
      pv.data = RangeValue{std::get<IntWithUnit>(first->data),
                           std::get<IntWithUnit>(second->data)};
      return pv;
    }
    return first;
  }

  std::optional<PropertyValue> parse_property_atom() {
    PropertyValue pv;
    if (at(TokKind::Integer) || at(TokKind::Minus)) {
      const bool neg = accept(TokKind::Minus);
      if (!at(TokKind::Integer)) {
        error("expected integer");
        return std::nullopt;
      }
      IntWithUnit iu;
      iu.value = eat().int_value;
      if (neg) iu.value = -iu.value;
      if (at(TokKind::Ident) && !at_kw("applies")) {
        iu.unit = to_lower(std::string(eat().text));
      }
      pv.data = iu;
      return pv;
    }
    if (at(TokKind::Real)) {
      pv.data = eat().real_value;
      // Skip an optional unit on reals.
      if (at(TokKind::Ident) && !at_kw("applies")) eat();
      return pv;
    }
    if (at(TokKind::String)) {
      const auto t = eat();
      std::string s(t.text);
      if (s.size() >= 2) s = s.substr(1, s.size() - 2);
      pv.data = s;
      return pv;
    }
    if (at_kw("true") || at_kw("false")) {
      pv.data = accept_kw("true") ? true : (accept_kw("false"), false);
      return pv;
    }
    if (at_kw("reference")) {
      ++i_;
      if (!expect(TokKind::LParen, "'('")) return std::nullopt;
      auto path = dotted_path();
      if (!path || !expect(TokKind::RParen, "')'")) return std::nullopt;
      pv.data = ReferenceValue{std::move(*path)};
      return pv;
    }
    if (at(TokKind::LParen)) {
      ++i_;
      ListValue list;
      if (!at(TokKind::RParen)) {
        do {
          auto item = parse_property_value();
          if (!item) return std::nullopt;
          list.items.push_back(std::move(*item));
        } while (accept(TokKind::Comma));
      }
      if (!expect(TokKind::RParen, "')'")) return std::nullopt;
      // A single-element parenthesized value is just that value (OSATE
      // writes "(reference (cpu))" for unary binding lists).
      if (list.items.size() == 1) return std::move(list.items[0]);
      pv.data = std::move(list);
      return pv;
    }
    if (at(TokKind::Ident)) {
      auto q = qualified_name();
      if (!q) return std::nullopt;
      pv.data = *q;
      return pv;
    }
    error("expected property value");
    return std::nullopt;
  }

  Model& model_;
  std::vector<AadlToken> toks_;
  util::DiagnosticEngine& diags_;
  std::size_t i_ = 0;
};

}  // namespace

bool parse_aadl(Model& model, std::string_view source,
                util::DiagnosticEngine& diags) {
  Parser p(model, lex(source, diags), diags);
  return p.run();
}

}  // namespace aadlsched::aadl
