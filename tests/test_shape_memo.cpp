// The shape memo of Semantics::prioritized() against a memo-free Semantics.
//
// A shape hit skips the candidate generator, the Par3 fold and the skyline,
// and rebuilds the survivors' targets from recorded choice rows. The
// memo-free side has neither the fan memo nor the shape memo, so it folds
// every expansion: equal fans state by state, and equal tables afterwards,
// check every hit against a full fold. Each side runs in a fresh Context, so
// the tables also pin that skipping a fold interns nothing that folding
// would have interned, in the same order (DESIGN.md §13).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/semantics.hpp"
#include "random_parallel.hpp"
#include "translate/translator.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;
using namespace aadlsched::acsr::random_parallel;

namespace {

void expect_same_tables(const Context& a, const Context& b,
                        const std::string& where) {
  ASSERT_EQ(a.actions().size(), b.actions().size()) << where;
  for (ActionId id = 0; id < a.actions().size(); ++id)
    ASSERT_TRUE(
        std::ranges::equal(a.actions().uses(id), b.actions().uses(id)))
        << where << ", action " << id;
  ASSERT_EQ(a.terms().size(), b.terms().size()) << where;
}

/// Breadth-first walk from `states` in lockstep: the memoized Semantics
/// expands each state in its Context, the memo-free one in its own, and the
/// fans and table sizes must agree after every state. Stops after
/// `max_states`, or at the first deadlock when `stop_at_deadlock` (as the
/// explorer does by default). Returns the states expanded.
std::size_t lockstep_walk(Semantics& memo, Semantics& plain,
                          std::vector<TermId> states,
                          const std::string& where, std::size_t max_states,
                          bool stop_at_deadlock) {
  Context& mc = memo.context();
  Context& pc = plain.context();
  std::unordered_set<TermId> seen;
  for (const TermId s : states) seen.insert(s);
  std::vector<Transition> fm, fp;
  for (std::size_t i = 0; i < states.size() && i < max_states; ++i) {
    const TermId s = states[i];
    EXPECT_TRUE(memo.prioritized(s, fm));
    EXPECT_TRUE(plain.prioritized(s, fp));
    if (fm != fp) {
      ADD_FAILURE() << where << ": fans differ at state #" << i;
      return i;
    }
    if (mc.terms().size() != pc.terms().size() ||
        mc.actions().size() != pc.actions().size()) {
      ADD_FAILURE() << where << ": tables diverge at state #" << i;
      return i;
    }
    if (fm.empty() && stop_at_deadlock) return i + 1;
    for (const Transition& tr : fm)
      if (seen.insert(tr.target).second) states.push_back(tr.target);
  }
  return std::min(states.size(), max_states);
}

// ---------------------------------------------------------------------------
// Every shipped model, at the quanta Par3FoldPin pins.

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

/// The initial state of `m` translated into `ctx`; kInvalidTerm (with a
/// recorded failure) when the front end or the translation fails.
TermId translate_model(Context& ctx, const Model& m) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + m.file +
                   ".aadl");
  std::stringstream src;
  src << in.rdbuf();
  util::DiagnosticEngine diags(m.file);
  aadl::Model model;
  if (!aadl::parse_aadl(model, src.str(), diags)) {
    ADD_FAILURE() << diags.render_all();
    return kInvalidTerm;
  }
  auto inst = aadl::instantiate(model, m.root, diags);
  if (!inst || diags.has_errors()) {
    ADD_FAILURE() << diags.render_all();
    return kInvalidTerm;
  }
  translate::TranslateOptions topts;
  topts.quantum_ns = static_cast<std::int64_t>(m.quantum_ms) * 1'000'000;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) {
    ADD_FAILURE() << diags.render_all();
    return kInvalidTerm;
  }
  return tr->initial;
}

class ShapeMemoModel : public ::testing::TestWithParam<Model> {};

TEST_P(ShapeMemoModel, MatchesAMemoFreeSemanticsStateByState) {
  const Model& m = GetParam();
  Context mc, pc;
  const TermId initial = translate_model(mc, m);
  ASSERT_NE(initial, kInvalidTerm);
  ASSERT_EQ(translate_model(pc, m), initial);
  Semantics memo(mc);
  Semantics plain(pc, /*memoize=*/false);
  const std::string where =
      std::string(m.file) + " @ " + std::to_string(m.quantum_ms) + " ms";
  const std::size_t expanded =
      lockstep_walk(memo, plain, {initial}, where, SIZE_MAX, true);
  ASSERT_FALSE(::testing::Test::HasFailure());
  expect_same_tables(mc, pc, where);
  EXPECT_GT(expanded, 1u);
  EXPECT_EQ(plain.stats().shape_hits, 0u);
  EXPECT_EQ(memo.stats().candidates, plain.stats().candidates);
  EXPECT_EQ(memo.stats().kept, plain.stats().kept);
  EXPECT_LE(memo.stats().fold_partials, plain.stats().fold_partials);
}

INSTANTIATE_TEST_SUITE_P(
    ShippedModels, ShapeMemoModel, ::testing::ValuesIn(kModels),
    [](const ::testing::TestParamInfo<Model>& info) {
      return std::string(info.param.file) + "_q" +
             std::to_string(info.param.quantum_ms);
    });

// ---------------------------------------------------------------------------
// Seeded random walks whose states share signatures.
//
// A walk reuses random_spec()'s components as label templates. Each template
// appears at every depth with different continuations, so distinct states
// present equal label sequences; each also has a twin whose event offers
// carry another priority and one whose event offers face the other way, so
// a signature that dropped either field would merge two different fans. The
// same Parallel is walked under two restrictions and under none.

struct Variant {
  std::size_t tmpl = 0;
  std::vector<std::size_t> next;  // per offer: variant of the next depth
};

struct WalkPlan {
  std::vector<std::vector<Offer>> templates;
  std::vector<std::vector<Variant>> depths;  // last depth leads to NIL
  std::vector<std::size_t> initial;          // depth-0 variant per component
  std::vector<int> restricted;
  std::vector<int> unrestricted;             // the complement of restricted
};

constexpr std::size_t kDepths = 6;

WalkPlan random_walk_plan(util::Xoshiro256& rng) {
  const Spec spec = random_spec(rng);
  WalkPlan plan;
  for (const std::vector<Offer>& offers : spec.components) {
    plan.templates.push_back(offers);
    std::vector<Offer> louder = offers, flipped = offers;
    bool has_event = false;
    for (Offer& o : louder) {
      if (o.timed) continue;
      ++o.priority;
      has_event = true;
    }
    for (Offer& o : flipped)
      if (!o.timed) o.send = !o.send;
    if (has_event) {
      plan.templates.push_back(std::move(louder));
      plan.templates.push_back(std::move(flipped));
    }
  }
  const std::size_t width = 2 * plan.templates.size();
  plan.depths.resize(kDepths);
  for (std::size_t d = 0; d < kDepths; ++d) {
    for (std::size_t v = 0; v < width; ++v) {
      Variant var;
      var.tmpl = v < plan.templates.size()
                     ? v
                     : rng.uniform_int(0, plan.templates.size() - 1);
      for (std::size_t k = 0; k < plan.templates[var.tmpl].size(); ++k)
        var.next.push_back(rng.uniform_int(0, width - 1));
      plan.depths[d].push_back(std::move(var));
    }
  }
  for (std::size_t i = 0; i < spec.components.size(); ++i)
    plan.initial.push_back(rng.uniform_int(0, width - 1));
  plan.restricted = spec.restricted;
  for (int e = 0; e < kEvents; ++e)
    if (std::find(spec.restricted.begin(), spec.restricted.end(), e) ==
        spec.restricted.end())
      plan.unrestricted.push_back(e);
  return plan;
}

/// The walk's initial states built into `ctx`: Restrict(restricted, P),
/// Restrict(unrestricted, P) and P itself.
std::vector<TermId> build_walk(Context& ctx, const WalkPlan& plan) {
  // Built bottom-up: depth d's variants are choices over their template's
  // offers, each continuing with a variant of depth d + 1.
  TermTable& tt = ctx.terms();
  std::vector<TermId> below(plan.depths.back().size(), kNil);
  for (std::size_t d = plan.depths.size(); d-- > 0;) {
    std::vector<TermId> here;
    for (const Variant& v : plan.depths[d]) {
      std::vector<TermId> alts;
      const std::vector<Offer>& offers = plan.templates[v.tmpl];
      for (std::size_t k = 0; k < offers.size(); ++k)
        alts.push_back(offer_term(ctx, offers[k], below[v.next[k]]));
      here.push_back(tt.choice(alts));
    }
    below = std::move(here);
  }
  std::vector<TermId> comps;
  for (const std::size_t v : plan.initial) comps.push_back(below[v]);
  const TermId par = tt.parallel(comps);
  return {tt.restrict(event_set(ctx, plan.restricted), par),
          tt.restrict(event_set(ctx, plan.unrestricted), par), par};
}

TEST(ShapeMemo, RandomWalksMatchAMemoFreeSemantics) {
  util::Xoshiro256 rng(20261018);
  std::uint64_t hits = 0, expansions = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const WalkPlan plan = random_walk_plan(rng);
    Context mc, pc;
    const std::vector<TermId> initial = build_walk(mc, plan);
    ASSERT_EQ(build_walk(pc, plan), initial) << "trial " << trial;
    Semantics memo(mc);
    Semantics plain(pc, /*memoize=*/false);
    const std::string where = "trial " + std::to_string(trial);
    expansions += lockstep_walk(memo, plain, initial, where, 400, false);
    ASSERT_FALSE(::testing::Test::HasFailure());
    expect_same_tables(mc, pc, where);
    hits += memo.stats().shape_hits;
  }
  // The walks do exercise the memo: a good share of expansions are hits.
  EXPECT_GT(hits, expansions / 10) << hits << " hits / " << expansions;
}

// ---------------------------------------------------------------------------
// A warm memo.

/// Every reachable state of cruise control at 2 ms, in BFS order, explored
/// by `sem` (whose Context the caller owns), with each state's fan.
std::vector<TermId> cruise_2ms_states(
    Context& ctx, Semantics& sem, std::vector<std::vector<Transition>>& fans) {
  const TermId initial =
      translate_model(ctx, {"cruise_control", "CruiseControlSystem.impl", 2});
  std::vector<TermId> states;
  if (initial == kInvalidTerm) return states;
  states.push_back(initial);
  std::unordered_set<TermId> seen;
  seen.insert(initial);
  for (std::size_t i = 0; i < states.size(); ++i) {
    fans.push_back(sem.prioritized(states[i]));
    for (const Transition& tr : fans.back())
      if (seen.insert(tr.target).second) states.push_back(tr.target);
  }
  return states;
}

TEST(ShapeMemo, SecondPassOverCruiseControlIsAllHits) {
  Context ctx;
  Semantics sem(ctx);
  std::vector<std::vector<Transition>> first;
  const std::vector<TermId> states = cruise_2ms_states(ctx, sem, first);
  ASSERT_EQ(states.size(), 6113u);
  // Every state but the initial one is a Restrict(Parallel).
  std::size_t expansions = 0;
  for (const TermId s : states) {
    const TermNode& node = ctx.terms().node(s);
    expansions += node.kind == TermKind::Restrict &&
                  ctx.terms().kind(node.b) == TermKind::Parallel;
  }
  ASSERT_GE(expansions, states.size() - 1);

  const Semantics::Stats before = sem.stats();
  const std::size_t terms = ctx.terms().size();
  const std::size_t actions = ctx.actions().size();
  const std::size_t bytes = sem.approx_bytes();
  std::vector<Transition> fan;
  for (std::size_t i = 0; i < states.size(); ++i) {
    ASSERT_TRUE(sem.prioritized(states[i], fan));
    ASSERT_EQ(fan, first[i]) << "state #" << i;
  }
  const Semantics::Stats& after = sem.stats();
  EXPECT_EQ(after.shape_hits - before.shape_hits, expansions);
  EXPECT_EQ(after.fold_partials, before.fold_partials);
  EXPECT_EQ(after.computed, before.computed);
  EXPECT_EQ(ctx.terms().size(), terms);
  EXPECT_EQ(ctx.actions().size(), actions);
  EXPECT_EQ(sem.approx_bytes(), bytes);
}

// ---------------------------------------------------------------------------
// Budget and memory accounting.

/// Restrict(∅, Parallel(c₀…c₁₂)) where each cᵢ offers two timed steps on a
/// resource of its own: the fold builds 2 + 4 + … + 2¹³ partials, more than
/// kPollPartials.
TermId wide_fold_state(Context& ctx) {
  TermTable& tt = ctx.terms();
  std::vector<TermId> comps;
  for (int i = 0; i < 13; ++i) {
    const Resource r = ctx.resource("cpu" + std::to_string(i));
    const ActionId low = ctx.actions().intern({{r, 1}});
    const ActionId high = ctx.actions().intern({{r, 2}});
    comps.push_back(tt.choice({tt.act(low, kNil), tt.act(high, kNil)}));
  }
  return tt.restrict(ctx.event_sets().intern({}), tt.parallel(comps));
}

TEST(ShapeMemo, HitOnALongFoldPollsTheBudget) {
  Context ctx;
  Semantics sem(ctx);
  const TermId state = wide_fold_state(ctx);
  std::vector<Transition> whole;
  ASSERT_TRUE(sem.prioritized(state, whole));
  ASSERT_GE(sem.stats().fold_partials, Semantics::kPollPartials);
  ASSERT_EQ(whole.size(), 1u);  // every component at its top priority

  util::CancelToken tok;
  tok.cancel();
  util::RunBudget b;
  b.cancel = &tok;
  util::BudgetTracker tracker(b, {}, nullptr);
  sem.set_budget(&tracker);
  const Semantics::Stats before = sem.stats();
  std::vector<Transition> fan;
  EXPECT_FALSE(sem.prioritized(state, fan));
  EXPECT_TRUE(fan.empty());
  EXPECT_EQ(sem.interruption().reason, util::StopReason::Cancelled);
  EXPECT_EQ(sem.stats().shape_hits, before.shape_hits);
  EXPECT_EQ(sem.stats().candidates, before.candidates);

  tok.reset();
  EXPECT_TRUE(sem.prioritized(state, fan));
  EXPECT_EQ(fan, whole);
  EXPECT_EQ(sem.stats().shape_hits, before.shape_hits + 1);
  sem.set_budget(nullptr);
}

TEST(ShapeMemo, ApproxBytesCountsRecordedShapes) {
  Context ctx;
  Semantics sem(ctx);
  TermTable& tt = ctx.terms();
  const Event e = ctx.event("e");
  const ActionId busy = ctx.actions().intern({{ctx.resource("cpu"), 1}});
  const TermId par = tt.parallel(
      {tt.choice({tt.act(busy, kNil), tt.evt(e, true, 1, kNil)}),
       tt.choice({tt.act(kIdleAction, kNil), tt.evt(e, false, 1, kNil)})});
  const TermId open = tt.restrict(ctx.event_sets().intern({}), par);
  const TermId closed = tt.restrict(ctx.event_sets().intern({e}), par);

  ASSERT_FALSE(sem.prioritized(open).empty());
  const std::size_t one_shape = sem.approx_bytes();
  sem.prioritized(open);  // a hit records nothing
  EXPECT_EQ(sem.stats().shape_hits, 1u);
  EXPECT_EQ(sem.approx_bytes(), one_shape);
  // The same child fans under another restriction are another shape.
  ASSERT_FALSE(sem.prioritized(closed).empty());
  EXPECT_EQ(sem.stats().shape_hits, 1u);
  EXPECT_GT(sem.approx_bytes(), one_shape);
}

}  // namespace
