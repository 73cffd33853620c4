// The explorer's state table against term exploration.
//
// versa::explore keeps states as component rows and ranks them in
// first-intern order; versa::build_lts interns every state as a term and
// expands it through Semantics::prioritized(TermId), so its canonical fans
// break label ties by TermId. Each side runs in a fresh Context built the
// same way, and they must agree on the BFS sequence of states (rows
// materialized as terms in state-number order), the transitions, depth and
// peak frontier, and the first deadlock with its trace (DESIGN.md §13).
// The storage gate pins what leaving states out of the term table buys.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/builder.hpp"
#include "acsr/printer.hpp"
#include "acsr/semantics.hpp"
#include "random_parallel.hpp"
#include "translate/translator.hpp"
#include "util/rng.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

/// Builds one system into a Context and returns its initial state.
using Build = std::function<TermId(Context&)>;

/// A context-free rendering of a state term: a Parallel (inside its
/// restriction) renders as the multiset of its components' printed terms,
/// anything else as its printed term. Components are cached per TermId.
class StateKeys {
 public:
  explicit StateKeys(const Context& ctx) : ctx_(ctx), printer_(ctx) {}

  std::string key(TermId t) {
    const TermTable& tt = ctx_.terms();
    std::string out;
    if (tt.kind(t) == TermKind::Restrict &&
        tt.kind(tt.node(t).b) == TermKind::Parallel) {
      out = "R{";
      for (const Event e : ctx_.event_sets().events(tt.node(t).a))
        out += ctx_.event_name(e) + ",";
      out += "}";
      t = tt.node(t).b;
    }
    if (tt.kind(t) != TermKind::Parallel) return out + component(t);
    std::vector<std::string> parts;
    for (const TermId c : tt.payload(t)) parts.push_back(component(c));
    std::sort(parts.begin(), parts.end());
    out += "P(";
    for (const std::string& p : parts) out += p + " || ";
    return out + ")";
  }

 private:
  const std::string& component(TermId t) {
    auto it = cache_.find(t);
    if (it == cache_.end())
      it = cache_.emplace(t, printer_.ground_term(t)).first;
    return it->second;
  }

  const Context& ctx_;
  Printer printer_;
  std::unordered_map<TermId, std::string> cache_;
};

/// What exploring an Lts breadth-first from its initial state, stopping at
/// the first deadlock as versa::explore does, reports.
struct OracleRun {
  std::size_t states = 0;       // discovered: a prefix of lts.states
  std::uint64_t transitions = 0;
  std::uint64_t depth = 0;
  std::uint64_t peak_frontier = 1;
  bool deadlock = false;
  std::size_t first_deadlock = 0;
  std::vector<std::size_t> trace;  // state indices after the initial one
  std::vector<Label> trace_labels;
};

OracleRun run_oracle(const versa::Lts& lts) {
  OracleRun o;
  const std::size_t n = lts.states.size();
  std::vector<std::uint64_t> level(n, 0);
  std::vector<std::size_t> parent(n, 0);
  std::vector<Label> via(n);
  std::vector<bool> seen(n, false);
  seen[0] = true;
  o.states = 1;
  for (std::size_t i = 0; i < o.states; ++i) {
    o.depth = level[i];
    const auto& fan = lts.edges[i];
    const bool stuck = std::all_of(fan.begin(), fan.end(), [&](const auto& tr) {
      return !tr.label.is_timed() && tr.target == lts.states[i];
    });
    if (stuck) {
      o.deadlock = true;
      o.first_deadlock = i;
      for (std::size_t s = i; s != 0; s = parent[s]) {
        o.trace.push_back(s);
        o.trace_labels.push_back(via[s]);
      }
      std::reverse(o.trace.begin(), o.trace.end());
      std::reverse(o.trace_labels.begin(), o.trace_labels.end());
      return o;
    }
    for (const Transition& tr : fan) {
      ++o.transitions;
      const std::size_t j = lts.index.at(tr.target);
      if (seen[j]) continue;
      seen[j] = true;
      EXPECT_EQ(j, o.states) << "build_lts discovered out of order";
      ++o.states;
      level[j] = level[i] + 1;
      parent[j] = i;
      via[j] = tr.label;
      o.peak_frontier = std::max<std::uint64_t>(o.peak_frontier,
                                                o.states - (i + 1));
    }
  }
  return o;
}

/// Fans of `lts` with two transitions that share a label.
std::size_t shared_label_fans(const versa::Lts& lts) {
  std::size_t shared = 0;
  for (const auto& fan : lts.edges)
    for (std::size_t k = 1; k < fan.size(); ++k)
      if (fan[k].label == fan[k - 1].label) {
        ++shared;
        break;
      }
  return shared;
}

/// Explore `build` with rows and with terms, each in a fresh Context, and
/// compare. Returns the term side's Lts for coverage checks.
versa::Lts expect_rows_match_terms(const Build& build,
                                   const std::string& where) {
  Context rows_ctx;
  Semantics rows_sem(rows_ctx);
  std::vector<TermId> bfs;
  versa::ExploreOptions opts;
  opts.discovered = &bfs;
  const versa::ExploreResult r =
      versa::explore(rows_sem, build(rows_ctx), opts);
  EXPECT_TRUE(r.complete) << where;

  Context terms_ctx;
  Semantics terms_sem(terms_ctx);
  // A run that completes the space has no further state to find; one that
  // stops at a deadlock discovered exactly r.states.
  const versa::Lts lts = versa::build_lts(
      terms_sem, build(terms_ctx), r.deadlock_found ? r.states : r.states + 1);
  const OracleRun o = run_oracle(lts);

  EXPECT_EQ(r.states, o.states) << where;
  EXPECT_EQ(r.transitions, o.transitions) << where;
  EXPECT_EQ(r.depth, o.depth) << where;
  EXPECT_EQ(r.peak_frontier, o.peak_frontier) << where;
  EXPECT_EQ(r.deadlock_found, o.deadlock) << where;

  StateKeys row_keys(rows_ctx), term_keys(terms_ctx);
  EXPECT_EQ(bfs.size(), o.states) << where;
  for (std::size_t i = 0; i < std::min(bfs.size(), o.states); ++i) {
    if (row_keys.key(bfs[i]) != term_keys.key(lts.states[i])) {
      ADD_FAILURE() << where << ": BFS state #" << i << " differs";
      break;
    }
  }
  if (r.deadlock_found && o.deadlock) {
    EXPECT_EQ(row_keys.key(r.first_deadlock),
              term_keys.key(lts.states[o.first_deadlock]))
        << where;
    EXPECT_EQ(r.trace.size(), o.trace.size()) << where;
    for (std::size_t k = 0; k < std::min(r.trace.size(), o.trace.size());
         ++k) {
      EXPECT_EQ(render_label(rows_ctx, r.trace[k].label),
                render_label(terms_ctx, o.trace_labels[k]))
          << where << ", step " << k;
      EXPECT_EQ(row_keys.key(r.trace[k].target),
                term_keys.key(lts.states[o.trace[k]]))
          << where << ", step " << k;
    }
  }
  return lts;
}

std::string read_model(const std::string& file) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + file + ".aadl");
  std::stringstream src;
  src << in.rdbuf();
  return src.str();
}

/// The translation of a shipped model at `quantum_ms`.
Build shipped(const std::string& file, const std::string& root,
              int quantum_ms) {
  auto text = std::make_shared<std::string>(read_model(file));
  return [=](Context& ctx) -> TermId {
    util::DiagnosticEngine diags(file);
    aadl::Model model;
    if (!aadl::parse_aadl(model, *text, diags)) return kInvalidTerm;
    auto inst = aadl::instantiate(model, root, diags);
    if (!inst || diags.has_errors()) return kInvalidTerm;
    translate::TranslateOptions topts;
    topts.quantum_ns = static_cast<std::int64_t>(quantum_ms) * 1'000'000;
    const auto tr = translate::translate(ctx, *inst, diags, topts);
    return tr ? tr->initial : kInvalidTerm;
  };
}

struct Model {
  const char* file;
  const char* root;
  int quantum_ms;
};

constexpr Model kModels[] = {
    {"cruise_control", "CruiseControlSystem.impl", 1},
    {"cruise_control", "CruiseControlSystem.impl", 2},
    {"cruise_control", "CruiseControlSystem.impl", 5},
    {"cruise_control", "CruiseControlSystem.impl", 10},
    {"avionics", "Avionics.impl", 2},
    {"avionics", "Avionics.impl", 5},
    {"avionics", "Avionics.impl", 10},
    {"storm", "Storm.impl", 2},
    {"storm", "Storm.impl", 5},
    {"storm", "Storm.impl", 10},
    {"symmetric", "Symmetric.impl", 2},
    {"symmetric", "Symmetric.impl", 5},
    {"symmetric", "Symmetric.impl", 10},
    {"quantum_ladder", "QuantumLadder.impl", 2},
    {"quantum_ladder", "QuantumLadder.impl", 5},
    {"quantum_ladder", "QuantumLadder.impl", 10},
    {"slow_periodic", "SlowPeriodic.impl", 2},
    {"slow_periodic", "SlowPeriodic.impl", 5},
    {"slow_periodic", "SlowPeriodic.impl", 10},
    {"dual_rig", "DualRig.impl", 2},
    {"dual_rig", "DualRig.impl", 5},
    {"dual_rig", "DualRig.impl", 10},
};

void PrintTo(const Model& m, std::ostream* os) {
  *os << m.file << " @ " << m.quantum_ms << " ms";
}

class RowsVsTermsModel : public ::testing::TestWithParam<Model> {};

TEST_P(RowsVsTermsModel, SameBfsCountsAndDeadlock) {
  const Model& m = GetParam();
  expect_rows_match_terms(shipped(m.file, m.root, m.quantum_ms),
                          std::string(m.file) + " @ " +
                              std::to_string(m.quantum_ms) + " ms");
}

INSTANTIATE_TEST_SUITE_P(
    ShippedModels, RowsVsTermsModel, ::testing::ValuesIn(kModels),
    [](const ::testing::TestParamInfo<Model>& info) {
      return std::string(info.param.file) + "_q" +
             std::to_string(info.param.quantum_ms);
    });

TEST(RowsVsTerms, SeededRandomSystems) {
  std::size_t shared = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Xoshiro256 rng(seed);
    const random_parallel::Spec spec = random_parallel::random_spec(rng);
    const versa::Lts lts = expect_rows_match_terms(
        [&](Context& ctx) { return random_parallel::build(ctx, spec); },
        "seed " + std::to_string(seed));
    shared += shared_label_fans(lts);
  }
  // Ties on a label are what the first-intern ranking decides: 4,154
  // fans of these systems have one.
  EXPECT_GT(shared, 1000u);
}

/// Sys = (X || Y) \ {z} as a Call: X ticks into X1, which sends `a` into
/// either X3 or X again, so the state after the tick has two `a!`
/// successors, and one of them is the unfolded body of Sys. X3's Call term
/// is interned before Sys, so the candidate generator names (X3 || Y)
/// first, while the body, ranked when the initial Call was expanded, sorts
/// first, as its lower TermId does on the term side.
TermId build_return_to_body(Context& ctx) {
  Builder b(ctx);
  b.def("Y", {}, b.idle(b.call("Y")));
  b.def("X3", {}, b.idle(b.call("X3")));
  b.def("X1", {},
        b.pick({b.send("a", b.c(1), b.call("X3")),
                b.send("a", b.c(1), b.call("X"))}));
  b.def("X", {}, b.idle(b.call("X1")));
  b.def("Sys", {}, b.hide({"z"}, b.par({b.call("X"), b.call("Y")})));
  b.start("X3");
  return b.start("Sys");
}

TEST(RowsVsTerms, ReturnToTheUnfoldedInitialBody) {
  const versa::Lts lts =
      expect_rows_match_terms(build_return_to_body, "return to body");
  ASSERT_EQ(lts.states.size(), 4u);  // Sys, (X1||Y), body, (X3||Y)
  EXPECT_EQ(shared_label_fans(lts), 1u);
  // The body is discovered before (X3 || Y).
  Context ctx;
  const TermId sys = build_return_to_body(ctx);
  const TermId body = ctx.unfold(sys);
  Context terms_ctx;
  Semantics sem(terms_ctx);
  const versa::Lts again =
      versa::build_lts(sem, build_return_to_body(terms_ctx));
  StateKeys a(ctx), b(terms_ctx);
  EXPECT_EQ(a.key(body), b.key(again.states[2]));
}

TEST(RowsVsTerms, HandBuiltTermsOutsideTheRowShape) {
  // No restriction and no Parallel under the initial Call: every state is
  // a one-entry row expanded through the term path.
  expect_rows_match_terms(
      [](Context& ctx) {
        Builder b(ctx);
        b.def("Long", {}, b.idle(b.idle(b.idle(b.nil()))));
        b.def("Short", {}, b.send("bang", b.c(1), b.nil()));
        b.def("Race", {}, b.pick({b.call("Long"), b.call("Short")}));
        return b.start("Race");
      },
      "race");
  // A bare Parallel: rows without a restriction.
  expect_rows_match_terms(
      [](Context& ctx) {
        Builder b(ctx);
        b.def("P", {"n"},
              b.when(b.lt(b.p(0), b.c(3)),
                     b.pick({b.idle(b.call("P", {b.add(b.p(0), b.c(1))})),
                             b.act({{"cpu", b.c(1)}},
                                   b.call("P", {b.add(b.p(0), b.c(1))}))})));
        return ctx.terms().parallel({b.start("P", {0}), b.start("P", {1})});
      },
      "bare parallel");
}

// ---------------------------------------------------------------------------
// Storage gate: cruise control at 1 ms keeps its explored states out of the
// term table. Both bounds are ratios, so they hold on any host.

TEST(StateTableStorage, CruiseControlAt1msStaysCompact) {
  Context ctx;
  Semantics sem(ctx);
  const TermId init =
      shipped("cruise_control", "CruiseControlSystem.impl", 1)(ctx);
  ASSERT_NE(init, kInvalidTerm);
  const versa::ExploreResult r = versa::explore(sem, init);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.states, 65'098u);
  const double states = static_cast<double>(r.states);
  // 2.30 terms per state when every state was a Restrict and a Parallel
  // term; 0.30 with the state table.
  EXPECT_LE(static_cast<double>(ctx.terms().size()) / states, 0.5);
  // Measured at 160 B per state with the state table (Context, Semantics
  // memos, state table, parent vector, frontier); 1.25x that.
  EXPECT_LE(static_cast<double>(r.approx_memory_bytes) / states, 1.25 * 160);
}

}  // namespace
