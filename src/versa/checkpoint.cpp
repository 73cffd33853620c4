#include "versa/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "acsr/printer.hpp"
#include "util/hash.hpp"

namespace aadlsched::versa {

using acsr::TermId;
using acsr::TermKind;
using acsr::TermNode;
using acsr::kInvalidTerm;

namespace {

constexpr std::string_view kMagic = "aadlsched-checkpoint";
// Blobs of an older version are rejected as stale rather than parsed with a
// guessed layout.
constexpr std::string_view kVersion = "v6";

constexpr std::uint32_t kUnmapped = std::numeric_limits<std::uint32_t>::max();

/// Child term ids of a node, including the optional scope handlers.
template <typename Fn>
void for_each_child(const acsr::TermTable& tt, TermId id, const Fn& fn) {
  const TermNode& n = tt.node(id);
  switch (n.kind) {
    case TermKind::Nil:
    case TermKind::Call:
      break;
    case TermKind::Act:
    case TermKind::Evt:
    case TermKind::Restrict:
      fn(n.b);
      break;
    case TermKind::Choice:
    case TermKind::Parallel:
      for (const std::uint32_t c : tt.payload(id)) fn(c);
      break;
    case TermKind::Scope: {
      const acsr::ScopeParts p = tt.scope_parts(id);
      fn(p.body);
      if (p.exception_cont != kInvalidTerm) fn(p.exception_cont);
      if (p.interrupt_handler != kInvalidTerm) fn(p.interrupt_handler);
      if (p.timeout_handler != kInvalidTerm) fn(p.timeout_handler);
      break;
    }
  }
}

/// Dense serialization index of every `used` id, in ascending id order.
std::vector<std::uint32_t> densify(const std::vector<bool>& used) {
  std::vector<std::uint32_t> dense(used.size(), kUnmapped);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < used.size(); ++i)
    if (used[i]) dense[i] = next++;
  return dense;
}

/// Identity of the translation a checkpoint belongs to: the printed module
/// plus the resource and event names in id order, which together fix the
/// meaning of every raw resource, event and definition id it stores.
std::string translation_digest(const acsr::Context& ctx) {
  std::string text = acsr::Printer(ctx).module();
  for (const util::Interner* names :
       {&ctx.resource_interner(), &ctx.event_interner()}) {
    text += "--\n";
    for (util::Symbol s = 1; s < names->size(); ++s)
      text.append(names->str(s)).push_back('\n');
  }
  return util::hex_digest(text);
}

/// Emit a list of u32 values, wrapped so no line grows unbounded.
void emit_ids(std::ostringstream& os, const std::vector<std::uint32_t>& ids) {
  for (std::size_t i = 0; i < ids.size(); ++i)
    os << ids[i] << ((i + 1) % 16 == 0 || i + 1 == ids.size() ? '\n' : ' ');
}

/// Incremental parser over the digest-verified body. All reads are bounds-
/// checked; the first failure latches and everything after no-ops.
class Reader {
 public:
  explicit Reader(std::string_view body) : rest_(body) {}

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  void fail(std::string msg) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(msg);
    }
  }

  /// The next whitespace-delimited token; empty at the end of the body.
  std::string_view word(std::string_view what) {
    if (!ok_) return {};
    const auto space = [](char c) { return c == ' ' || c == '\n'; };
    std::size_t i = 0;
    while (i < rest_.size() && space(rest_[i])) ++i;
    std::size_t j = i;
    while (j < rest_.size() && !space(rest_[j])) ++j;
    const std::string_view t = rest_.substr(i, j - i);
    rest_.remove_prefix(j);
    if (t.empty()) fail("missing " + std::string(what));
    return t;
  }

  /// Consume one token and require it to be `word`.
  void expect(std::string_view w) {
    const std::string_view t = word(w);
    if (ok_ && t != w)
      fail("expected '" + std::string(w) + "', found '" + std::string(t) +
           "'");
  }

  std::int64_t num(std::string_view what) {
    const std::string_view t = word(what);
    std::int64_t v = 0;
    if (!ok_) return v;
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    if (ec != std::errc() || end != t.data() + t.size())
      fail("malformed number: " + std::string(what));
    return v;
  }

  std::uint64_t unum(std::string_view what) {
    const std::int64_t v = num(what);
    if (v < 0) fail("negative count: " + std::string(what));
    return static_cast<std::uint64_t>(v);
  }

  /// An id that must index a table of `limit` entries; 0 once failed.
  std::uint32_t id(std::uint64_t limit, std::string_view what) {
    const std::uint64_t v = unum(what);
    if (ok_ && v >= limit) fail("out-of-range " + std::string(what));
    return ok_ ? static_cast<std::uint32_t>(v) : 0;
  }

 private:
  std::string_view rest_;
  bool ok_ = true;
  std::string error_;
};

}  // namespace

std::string serialize_checkpoint(const acsr::Context& ctx,
                                 const Wavefront& wave) {
  const acsr::TermTable& tt = ctx.terms();

  // Mark the term DAG reachable from the wavefront (children first by
  // construction: every child has a smaller TermId than its parent).
  std::vector<bool> marked(tt.size(), false);
  std::vector<TermId> stack;
  const auto push = [&](TermId id) {
    if (id != kInvalidTerm && !marked[id]) {
      marked[id] = true;
      stack.push_back(id);
    }
  };
  const StateStore& store = wave.store;
  push(wave.initial);
  for (std::uint32_t s = 0; s < store.size(); ++s)
    for (const TermId c : store.row(s)) push(c);
  while (!stack.empty()) {
    const TermId id = stack.back();
    stack.pop_back();
    for_each_child(tt, id, push);
  }

  // Only the actions and event sets the marked terms use are written.
  const acsr::ActionTable& at = ctx.actions();
  const acsr::EventSetTable& est = ctx.event_sets();
  std::vector<bool> used_actions(at.size(), false);
  std::vector<bool> used_sets(est.size(), false);
  for (TermId id = 0; id < tt.size(); ++id) {
    if (!marked[id]) continue;
    const TermNode& n = tt.node(id);
    if (n.kind == TermKind::Act) used_actions[n.a] = true;
    if (n.kind == TermKind::Restrict) used_sets[n.a] = true;
  }
  const std::vector<std::uint32_t> dense = densify(marked);
  const std::vector<std::uint32_t> action_index = densify(used_actions);
  const std::vector<std::uint32_t> set_index = densify(used_sets);

  std::ostringstream os;
  os << kMagic << ' ' << kVersion << '\n';
  os << "stats " << wave.states << ' ' << wave.transitions << ' '
     << wave.depth << ' ' << wave.peak_frontier << '\n';
  os << "translation " << translation_digest(ctx) << '\n';

  // Resources, events and definitions are written as raw ids: the
  // translation digest pins their meaning.
  os << "actions " << std::count(used_actions.begin(), used_actions.end(), true)
     << '\n';
  for (acsr::ActionId a = 0; a < at.size(); ++a) {
    if (!used_actions[a]) continue;
    const std::span<const acsr::ResourceUse> uses = at.uses(a);
    os << uses.size();
    for (const acsr::ResourceUse& u : uses)
      os << ' ' << u.resource << ' ' << u.priority;
    os << '\n';
  }
  os << "eventsets " << std::count(used_sets.begin(), used_sets.end(), true)
     << '\n';
  for (acsr::EventSetId e = 0; e < est.size(); ++e) {
    if (!used_sets[e]) continue;
    const std::span<const acsr::Event> events = est.events(e);
    os << events.size();
    for (const acsr::Event x : events) os << ' ' << x;
    os << '\n';
  }

  os << "terms " << std::count(marked.begin(), marked.end(), true) << '\n';
  for (TermId id = 0; id < tt.size(); ++id) {
    if (!marked[id]) continue;
    const TermNode& n = tt.node(id);
    switch (n.kind) {
      case TermKind::Nil:
        os << "N\n";
        break;
      case TermKind::Act:
        os << "A " << action_index[n.a] << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Evt:
        os << "E " << n.a << ' ' << static_cast<int>(n.flag) << ' '
           << static_cast<acsr::Priority>(n.c) << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Choice:
      case TermKind::Parallel: {
        const auto p = tt.payload(id);
        os << (n.kind == TermKind::Choice ? 'C' : 'P') << ' ' << p.size();
        for (const std::uint32_t c : p) os << ' ' << dense[c];
        os << '\n';
        break;
      }
      case TermKind::Restrict:
        os << "R " << set_index[n.a] << ' ' << dense[n.b] << '\n';
        break;
      case TermKind::Scope: {
        const acsr::ScopeParts p = tt.scope_parts(id);
        const auto opt = [&](TermId t) -> std::int64_t {
          return t == kInvalidTerm ? -1
                                   : static_cast<std::int64_t>(dense[t]);
        };
        os << "S " << dense[p.body] << ' ' << p.time_left << ' '
           << p.exception_label << ' ' << opt(p.exception_cont) << ' '
           << opt(p.interrupt_handler) << ' ' << opt(p.timeout_handler)
           << '\n';
        break;
      }
      case TermKind::Call: {
        const auto p = tt.payload(id);
        os << "L " << n.a << ' ' << p.size();
        for (const std::uint32_t v : p)
          os << ' ' << static_cast<acsr::ParamValue>(v);
        os << '\n';
        break;
      }
    }
  }

  os << "initial " << dense[wave.initial] << '\n';

  // The state table, one row per line in state-number order, then the
  // lists of state numbers.
  os << "states " << store.size() << '\n';
  std::vector<std::uint32_t> visited;
  for (std::uint32_t s = 0; s < store.size(); ++s) {
    const auto row = store.row(s);
    os << row.size();
    for (const TermId c : row) os << ' ' << dense[c];
    os << '\n';
    if (store.seen(s)) visited.push_back(s);
  }
  const auto emit_list = [&](std::string_view name,
                             const std::vector<std::uint32_t>& ids) {
    os << name << ' ' << ids.size() << '\n';
    emit_ids(os, ids);
  };
  emit_list("frontier", wave.frontier);
  emit_list("next", wave.next_frontier);
  emit_list("visited", visited);

  std::string body = std::move(os).str();
  util::append_digest(body);
  return body;
}

std::optional<Wavefront> parse_checkpoint(acsr::Context& ctx,
                                          TermId initial,
                                          std::string_view text,
                                          std::string& error) {
  const auto reject = [&](std::string msg) -> std::optional<Wavefront> {
    error = "checkpoint rejected: " + std::move(msg);
    return std::nullopt;
  };

  // Integrity first: the trailing digest line covers every preceding byte.
  if (text.rfind("\ndigest ") == std::string_view::npos)
    return reject("no digest line");
  const auto body = util::strip_trailing_digest(text);
  if (!body) return reject("digest mismatch (truncated or corrupt)");

  Reader r{*body};
  r.expect(kMagic);
  {
    const std::string version(r.word("format version"));
    if (r.ok() && version != kVersion)
      return reject("stale checkpoint format '" + version + "' (this build "
                    "writes " + std::string(kVersion) +
                    "); re-run cold to capture a fresh checkpoint");
  }
  Wavefront w;
  r.expect("stats");
  w.states = r.unum("states");
  w.transitions = r.unum("transitions");
  w.depth = r.unum("depth");
  w.peak_frontier = r.unum("peak_frontier");

  // Nothing is interned before the translation is known to match.
  r.expect("translation");
  const std::string_view digest = r.word("translation digest");
  if (!r.ok()) return reject(r.error());
  if (digest != translation_digest(ctx))
    return reject("captured from a different translation (another model "
                  "or other analysis options)");

  const std::size_t nresources = ctx.resource_interner().size();
  const std::size_t nevents = ctx.event_interner().size();
  const auto mapped = [&](const auto& map, std::string_view what) {
    using V = std::decay_t<decltype(map[0])>;
    const std::uint32_t i = r.id(map.size(), what);
    return r.ok() ? map[i] : V{};
  };

  std::vector<acsr::ActionId> amap;
  r.expect("actions");
  for (std::uint64_t i = r.unum("action count"); r.ok() && i > 0; --i) {
    std::vector<acsr::ResourceUse> uses;
    for (std::uint64_t k = r.unum("resource-use count"); r.ok() && k > 0;
         --k) {
      const acsr::Resource res = r.id(nresources, "resource id");
      uses.push_back(acsr::ResourceUse{
          res, static_cast<acsr::Priority>(r.num("priority"))});
    }
    amap.push_back(ctx.actions().intern(uses));
  }
  std::vector<acsr::EventSetId> esmap;
  r.expect("eventsets");
  for (std::uint64_t i = r.unum("event-set count"); r.ok() && i > 0; --i) {
    std::vector<acsr::Event> events;
    for (std::uint64_t k = r.unum("event-set size"); r.ok() && k > 0; --k)
      events.push_back(r.id(nevents, "event id"));
    esmap.push_back(ctx.event_sets().intern(events));
  }

  // Term DAG, children-before-parents: every reference below must point at
  // an already-reconstructed node.
  acsr::TermTable& tt = ctx.terms();
  std::vector<TermId> tmap;
  r.expect("terms");
  const std::uint64_t nterms = r.unum("term count");
  if (!r.ok()) return reject(r.error());
  tmap.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(nterms, 1u << 24)));
  const auto term_at = [&](std::int64_t idx) -> TermId {
    if (idx < 0 || static_cast<std::uint64_t>(idx) >= tmap.size()) {
      r.fail("out-of-range term reference");
      return acsr::kNil;
    }
    return tmap[static_cast<std::size_t>(idx)];
  };
  for (std::uint64_t i = 0; r.ok() && i < nterms; ++i) {
    const std::string_view tag = r.word("term tag");
    if (tag == "N") {
      tmap.push_back(tt.nil());
    } else if (tag == "A") {
      const acsr::ActionId a = mapped(amap, "action id");
      tmap.push_back(tt.act(a, term_at(r.num("continuation"))));
    } else if (tag == "E") {
      const acsr::Event e = r.id(nevents, "event id");
      const bool send = r.num("send flag") != 0;
      const auto prio = static_cast<acsr::Priority>(r.num("priority"));
      tmap.push_back(tt.evt(e, send, prio, term_at(r.num("continuation"))));
    } else if (tag == "C" || tag == "P") {
      std::vector<TermId> children;
      for (std::uint64_t k = r.unum("child count"); r.ok() && k > 0; --k)
        children.push_back(term_at(r.num("child")));
      tmap.push_back(tag == "C" ? tt.choice(children)
                                : tt.parallel(children));
    } else if (tag == "R") {
      const acsr::EventSetId es = mapped(esmap, "event-set id");
      tmap.push_back(tt.restrict(es, term_at(r.num("body"))));
    } else if (tag == "S") {
      acsr::ScopeParts p;
      p.body = term_at(r.num("scope body"));
      p.time_left = static_cast<acsr::TimeValue>(r.num("scope time"));
      p.exception_label = r.id(nevents, "exception label");
      const auto opt = [&](std::string_view what) -> TermId {
        const std::int64_t idx = r.num(what);
        return idx < 0 ? kInvalidTerm : term_at(idx);
      };
      p.exception_cont = opt("exception continuation");
      p.interrupt_handler = opt("interrupt handler");
      p.timeout_handler = opt("timeout handler");
      tmap.push_back(tt.scope(p));
    } else if (tag == "L") {
      const acsr::DefId d = r.id(ctx.definition_count(), "def id");
      std::vector<acsr::ParamValue> args;
      for (std::uint64_t k = r.unum("arg count"); r.ok() && k > 0; --k)
        args.push_back(static_cast<acsr::ParamValue>(r.num("arg")));
      if (!r.ok()) break;
      if (args.size() != ctx.definition(d).params.size())
        return reject("arity mismatch calling '" + ctx.definition(d).name +
                      "'");
      tmap.push_back(tt.call(d, args));
    } else {
      return reject("unknown term tag '" + std::string(tag) + "'");
    }
  }

  r.expect("initial");
  w.initial = term_at(r.num("initial index"));
  if (r.ok() && w.initial != initial)
    return reject("initial state differs from this translation's");

  // Rows hold mapped TermIds, re-sorted as TermTable::parallel would (the
  // restored ids need not keep the captured order), and are interned
  // straight into the wavefront's store. A row that gets an earlier state
  // number is a duplicate; it would renumber every later state, so it is
  // refused.
  r.expect("states");
  const std::uint64_t nstates = r.unum("state count");
  std::vector<TermId> row;
  for (std::uint64_t s = 0; r.ok() && s < nstates; ++s) {
    const std::uint64_t len = r.unum("row length");
    if (r.ok() && (len == 0 || len > kMaxRowWidth)) r.fail("bad row length");
    row.clear();
    for (std::uint64_t k = 0; r.ok() && k < len; ++k)
      row.push_back(term_at(r.num("row entry")));
    if (!r.ok()) break;
    std::sort(row.begin(), row.end());
    if (w.store.intern(row) != s) return reject("duplicate state row");
  }
  const auto read_list = [&](std::string_view name, const auto& take) {
    r.expect(name);
    for (std::uint64_t i = r.unum("list length"); r.ok() && i > 0; --i) {
      const std::uint32_t s = r.id(nstates, "state number");
      if (r.ok()) take(s);
    }
  };
  read_list("frontier", [&](std::uint32_t s) { w.frontier.push_back(s); });
  read_list("next", [&](std::uint32_t s) { w.next_frontier.push_back(s); });
  read_list("visited", [&](std::uint32_t s) { w.store.mark_seen(s); });

  if (!r.ok()) return reject(r.error());
  return w;
}

}  // namespace aadlsched::versa
