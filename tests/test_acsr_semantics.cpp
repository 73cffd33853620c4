// Tests for the ACSR operational semantics: each rule (prefix, choice,
// parallel interleaving and synchronization, Par3 timed combination,
// restriction, scope, call unfolding) plus the prioritized relation.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_set>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/builder.hpp"
#include "acsr/preemption.hpp"
#include "acsr/printer.hpp"
#include "acsr/semantics.hpp"
#include "translate/translator.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  Context ctx;
  Builder b{ctx};
  Semantics sem{ctx};

  ActionId action(std::initializer_list<std::pair<const char*, Priority>> rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return ctx.actions().intern(std::move(uses));
  }

  std::multiset<std::string> labels(TermId t, bool prioritized = false) {
    std::multiset<std::string> out;
    for (const Transition& tr :
         prioritized ? sem.prioritized(t) : sem.transitions(t))
      out.insert(render_label(ctx, tr.label));
    return out;
  }
};

TEST_F(SemanticsTest, NilHasNoTransitions) {
  EXPECT_TRUE(sem.transitions(kNil).empty());
}

TEST_F(SemanticsTest, ActionPrefix) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const auto fan = sem.transitions(p);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_TRUE(fan[0].label.is_timed());
  EXPECT_EQ(fan[0].target, kNil);
}

TEST_F(SemanticsTest, EventPrefix) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 3, kNil);
  const auto fan = sem.transitions(p);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Event);
  EXPECT_TRUE(fan[0].label.send);
  EXPECT_EQ(fan[0].label.priority, 3);
}

TEST_F(SemanticsTest, ChoiceOffersAllBranches) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId c = ctx.terms().choice({p, q});
  EXPECT_EQ(sem.transitions(c).size(), 2u);
}

TEST_F(SemanticsTest, ParallelEventInterleaving) {
  const TermId p = ctx.terms().evt(ctx.event("a"), true, 1, kNil);
  const TermId q = ctx.terms().evt(ctx.event("b"), true, 1, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto ls = labels(par);
  EXPECT_EQ(ls.count("a!:1"), 1u);
  EXPECT_EQ(ls.count("b!:1"), 1u);
  // No timed step: neither component offers one.
  for (const auto& tr : sem.transitions(par))
    EXPECT_FALSE(tr.label.is_timed());
}

TEST_F(SemanticsTest, ParallelSynchronizationProducesTau) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 3, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto ls = labels(par);
  // Individual offers still available (no restriction) plus the tau with
  // the summed priority.
  EXPECT_EQ(ls.count("go!:2"), 1u);
  EXPECT_EQ(ls.count("go?:3"), 1u);
  EXPECT_EQ(ls.count("tau@go:5"), 1u);
}

TEST_F(SemanticsTest, NoSyncBetweenSameDirections) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), true, 3, kNil);
  const TermId par = ctx.terms().parallel({p, q});
  for (const auto& tr : sem.transitions(par))
    EXPECT_NE(tr.label.kind, Label::Kind::Tau);
}

TEST_F(SemanticsTest, Par3CombinesDisjointTimedSteps) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().act(action({{"bus", 2}}), kNil);
  const TermId par = ctx.terms().parallel({p, q});
  const auto fan = sem.transitions(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(bus,2),(cpu,1)}");
  EXPECT_EQ(fan[0].target, kNil);  // NIL || NIL collapses to NIL
}

TEST_F(SemanticsTest, Par3BlocksOnSharedResource) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId q = ctx.terms().act(action({{"cpu", 2}}), kNil);
  const TermId par = ctx.terms().parallel({p, q});
  // The two components both need cpu: no combined step exists, and neither
  // can step alone (time is global).
  EXPECT_TRUE(sem.transitions(par).empty());
}

TEST_F(SemanticsTest, Par3RequiresEveryComponentToStep) {
  const TermId p = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId blocked = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId par = ctx.terms().parallel({p, blocked});
  // `blocked` has no timed step, so no global timed step exists; only the
  // event offer of `blocked` interleaves.
  const auto fan = sem.transitions(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Event);
}

TEST_F(SemanticsTest, IdleStepsAllowWaiting) {
  // Fig. 2(b): idling steps let a process wait for resource access.
  const TermId busy = ctx.terms().act(action({{"cpu", 2}}), kNil);
  // waiter = {} : waiter'   where waiter' wants cpu
  const TermId wants = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId waiter =
      ctx.terms().choice({wants, ctx.terms().act(kIdleAction, wants)});
  const TermId par = ctx.terms().parallel({busy, waiter});
  const auto fan = sem.prioritized(par);
  // The only surviving global step: busy runs, waiter idles.
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(cpu,2)}");
}

TEST_F(SemanticsTest, RestrictionBlocksUnmatchedEvents) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, p);
  EXPECT_TRUE(sem.transitions(r).empty());
}

TEST_F(SemanticsTest, RestrictionForcesSynchronization) {
  const TermId p = ctx.terms().evt(ctx.event("go"), true, 2, kNil);
  const TermId q = ctx.terms().evt(ctx.event("go"), false, 3, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, ctx.terms().parallel({p, q}));
  const auto ls = labels(r);
  ASSERT_EQ(ls.size(), 1u);
  EXPECT_EQ(ls.count("tau@go:5"), 1u);
}

TEST_F(SemanticsTest, RestrictionPassesOtherEvents) {
  const TermId p = ctx.terms().evt(ctx.event("free"), true, 1, kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId r = ctx.terms().restrict(f, p);
  EXPECT_EQ(sem.transitions(r).size(), 1u);
}

TEST_F(SemanticsTest, ScopeTimedStepsDecrementAndTimeout) {
  // body = cpu-loop; scope of 2 quanta, timeout to handler.
  const DefId loop = ctx.declare("Loop");
  Definition d;
  d.name = "Loop";
  d.body = b.act({{"cpu", b.c(1)}}, b.call("Loop"));
  ctx.define(loop, std::move(d));
  const TermId body = b.start("Loop");
  const TermId handler = ctx.terms().evt(ctx.event("late"), true, 1, kNil);
  ScopeParts parts;
  parts.body = body;
  parts.time_left = 2;
  parts.timeout_handler = handler;
  const TermId s = ctx.terms().scope(parts);

  auto fan1 = sem.transitions(s);
  ASSERT_EQ(fan1.size(), 1u);
  auto fan2 = sem.transitions(fan1[0].target);
  ASSERT_EQ(fan2.size(), 1u);
  // After the second quantum the scope has expired: we are in the handler.
  EXPECT_EQ(fan2[0].target, handler);
}

TEST_F(SemanticsTest, ScopeExceptionExit) {
  // body announces completion via exception label -> exits to exc cont.
  const TermId done_then_loop =
      ctx.terms().evt(ctx.event("complete"), true, 1,
                      ctx.terms().act(action({{"cpu", 1}}), kNil));
  const TermId exc_cont = ctx.terms().evt(ctx.event("after"), true, 1, kNil);
  ScopeParts parts;
  parts.body = done_then_loop;
  parts.time_left = 10;
  parts.exception_label = ctx.event("complete");
  parts.exception_cont = exc_cont;
  const TermId s = ctx.terms().scope(parts);
  const auto fan = sem.transitions(s);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].target, exc_cont);  // scope dissolved
}

TEST_F(SemanticsTest, ScopeInterruptHandlerAlwaysEnabled) {
  const TermId body = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const TermId handler = ctx.terms().evt(ctx.event("irq"), false, 1, kNil);
  ScopeParts parts;
  parts.body = body;
  parts.time_left = kInfiniteTime;
  parts.interrupt_handler = handler;
  const TermId s = ctx.terms().scope(parts);
  const auto ls = labels(s);
  EXPECT_EQ(ls.count("irq?:1"), 1u);
  EXPECT_EQ(ls.count("{(cpu,1)}"), 1u);
}

TEST_F(SemanticsTest, InfiniteScopeNeverTimesOut) {
  const DefId loop = ctx.declare("Loop2");
  Definition d;
  d.name = "Loop2";
  d.body = b.act({{"cpu", b.c(1)}}, b.call("Loop2"));
  ctx.define(loop, std::move(d));
  ScopeParts parts;
  parts.body = b.start("Loop2");
  parts.time_left = kInfiniteTime;
  parts.timeout_handler = kNil;
  TermId s = ctx.terms().scope(parts);
  for (int i = 0; i < 5; ++i) {
    const auto fan = sem.transitions(s);
    ASSERT_EQ(fan.size(), 1u);
    s = fan[0].target;
    EXPECT_EQ(ctx.terms().kind(s), TermKind::Scope);
  }
}

TEST_F(SemanticsTest, CallUnfoldsDefinitionWithParameters) {
  // Count[n] = (n < 3) -> {(cpu,1)} : Count[n+1] + (n == 3) -> (done!,1).NIL
  b.def("Count", {"n"},
        b.pick({b.when(b.lt(b.p(0), b.c(3)),
                       b.act({{"cpu", b.c(1)}},
                             b.call("Count", {b.add(b.p(0), b.c(1))}))),
                b.when(b.eq(b.p(0), b.c(3)),
                       b.send("done", b.c(1), b.nil()))}));
  TermId t = b.start("Count", {0});
  for (int i = 0; i < 3; ++i) {
    const auto fan = sem.transitions(t);
    ASSERT_EQ(fan.size(), 1u) << "at step " << i;
    EXPECT_TRUE(fan[0].label.is_timed());
    t = fan[0].target;
  }
  const auto fan = sem.transitions(t);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "done!:1");
}

TEST_F(SemanticsTest, GuardFalseBranchVanishes) {
  b.def("G", {"x"},
        b.pick({b.when(b.gt(b.p(0), b.c(10)), b.send("big", b.c(1), b.nil())),
                b.when(b.le(b.p(0), b.c(10)),
                       b.send("small", b.c(1), b.nil()))}));
  const auto small = labels(b.start("G", {5}));
  EXPECT_EQ(small.count("small!:1"), 1u);
  EXPECT_EQ(small.count("big!:1"), 0u);
  const auto big = labels(b.start("G", {11}));
  EXPECT_EQ(big.count("big!:1"), 1u);
}

TEST_F(SemanticsTest, DynamicPriorityExpressionEvaluates) {
  // EDF-style: priority of the cpu access = 10 - (5 - t).
  b.def("Edf", {"t"},
        b.act({{"cpu", b.sub(b.c(10), b.sub(b.c(5), b.p(0)))}},
              b.call("Edf", {b.add(b.p(0), b.c(1))})));
  const auto fan0 = sem.transitions(b.start("Edf", {0}));
  ASSERT_EQ(fan0.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan0[0].label), "{(cpu,5)}");
  const auto fan3 = sem.transitions(b.start("Edf", {3}));
  EXPECT_EQ(render_label(ctx, fan3[0].label), "{(cpu,8)}");
}

TEST_F(SemanticsTest, PrioritizedRemovesPreemptedTimedSteps) {
  // Two processes compete for cpu at priorities 1 and 2; each can idle.
  const TermId lo = ctx.terms().choice(
      {ctx.terms().act(action({{"cpu", 1}}), kNil),
       ctx.terms().act(kIdleAction, kNil)});
  const TermId hi = ctx.terms().choice(
      {ctx.terms().act(action({{"cpu", 2}}), kNil),
       ctx.terms().act(kIdleAction, kNil)});
  const TermId par = ctx.terms().parallel({lo, hi});
  // Unprioritized: hi-runs, lo-runs, both-idle (cpu clash excluded by Par3).
  EXPECT_EQ(sem.transitions(par).size(), 3u);
  const auto fan = sem.prioritized(par);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(render_label(ctx, fan[0].label), "{(cpu,2)}");
}

TEST_F(SemanticsTest, TauWithPositivePriorityPreemptsTime) {
  const TermId sender = ctx.terms().evt(ctx.event("go"), true, 1, kNil);
  const TermId receiver = ctx.terms().evt(ctx.event("go"), false, 1, kNil);
  const TermId worker = ctx.terms().act(action({{"cpu", 1}}), kNil);
  // Give the communicating pair idle alternatives so a global timed step
  // exists at all, then restrict "go" so only the tau remains of the pair.
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId sender2 = ctx.terms().choice(
      {sender, ctx.terms().act(kIdleAction, sender)});
  const TermId receiver2 = ctx.terms().choice(
      {receiver, ctx.terms().act(kIdleAction, receiver)});
  const TermId sys2 = ctx.terms().restrict(
      f, ctx.terms().parallel({sender2, receiver2, worker}));
  const auto fan = sem.prioritized(sys2);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.kind, Label::Kind::Tau);
}

TEST_F(SemanticsTest, TauWithZeroPriorityDoesNotPreempt) {
  const TermId sender = ctx.terms().evt(ctx.event("go"), true, 0, kNil);
  const TermId receiver = ctx.terms().evt(ctx.event("go"), false, 0, kNil);
  const TermId sender2 =
      ctx.terms().choice({sender, ctx.terms().act(kIdleAction, sender)});
  const TermId receiver2 =
      ctx.terms().choice({receiver, ctx.terms().act(kIdleAction, receiver)});
  const TermId worker = ctx.terms().act(action({{"cpu", 1}}), kNil);
  const EventSetId f = ctx.event_sets().intern({ctx.event("go")});
  const TermId sys = ctx.terms().restrict(
      f, ctx.terms().parallel({sender2, receiver2, worker}));
  const auto fan = sem.prioritized(sys);
  // Both the tau and the timed step survive.
  EXPECT_EQ(fan.size(), 2u);
}

TEST_F(SemanticsTest, HigherPriorityEventOfferPreemptsLower) {
  // Same event, same direction, different priorities, in a choice.
  const TermId lo = ctx.terms().evt(ctx.event("e"), true, 1, kNil);
  const TermId hi = ctx.terms().evt(
      ctx.event("e"), true, 2, ctx.terms().act(kIdleAction, kNil));
  const TermId c = ctx.terms().choice({lo, hi});
  const auto fan = sem.prioritized(c);
  ASSERT_EQ(fan.size(), 1u);
  EXPECT_EQ(fan[0].label.priority, 2);
}

TEST_F(SemanticsTest, MemoizationReturnsIdenticalFans) {
  b.def("M", {}, b.act({{"cpu", b.c(1)}}, b.call("M")));
  const TermId t = b.start("M");
  const auto f1 = sem.transitions(t);
  const auto f2 = sem.transitions(t);
  EXPECT_EQ(f1, f2);
  EXPECT_GE(sem.stats().memo_hits, 1u);
}

TEST_F(SemanticsTest, NoMemoModeAgreesWithMemoized) {
  b.def("N", {"k"},
        b.pick({b.when(b.lt(b.p(0), b.c(2)),
                       b.act({{"cpu", b.c(1)}},
                             b.call("N", {b.add(b.p(0), b.c(1))}))),
                b.send("fin", b.c(1), b.nil())}));
  Semantics plain(ctx, /*memoize=*/false);
  const TermId t = b.start("N", {0});
  EXPECT_EQ(sem.transitions(t), plain.transitions(t));
  EXPECT_EQ(sem.prioritized(t), plain.prioritized(t));
}

// --- whole translated models ----------------------------------------------

struct ShippedModel {
  const char* file;
  const char* root;
};

void PrintTo(const ShippedModel& m, std::ostream* os) { *os << m.file; }

/// Every shipped model has well under this many states at 5 ms (the
/// largest, slow_periodic, has 53,655); a BFS that passes it is exploring a
/// wrong relation and stops instead of exhausting memory.
constexpr std::size_t kMaxStates = 100'000;

constexpr ShippedModel kShippedModels[] = {
    {"cruise_control", "CruiseControlSystem.impl"},
    {"avionics", "Avionics.impl"},
    {"storm", "Storm.impl"},
    {"symmetric", "Symmetric.impl"},
    {"quantum_ladder", "QuantumLadder.impl"},
    {"slow_periodic", "SlowPeriodic.impl"},
    {"dual_rig", "DualRig.impl"},
};

/// Translate a shipped model at a 5 ms quantum into `ctx`; kInvalidTerm
/// (with a recorded failure) when the front end or translation fails.
TermId translate_shipped(Context& ctx, const ShippedModel& m) {
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
  topts.quantum_ns = 5'000'000;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  if (!tr) {
    ADD_FAILURE() << diags.render_all();
    return kInvalidTerm;
  }
  return tr->initial;
}

class ShippedModelSemantics : public ::testing::TestWithParam<ShippedModel> {
};

// The explorer's labels-first prioritized() must agree, on every reachable
// state, with the definition: the full unprioritized fan with every
// preempted transition removed. Both run in the same Context, so target
// ids are comparable.
TEST_P(ShippedModelSemantics, LabelsFirstEqualsPrioritizedFullFan) {
  Context ctx;
  const TermId initial = translate_shipped(ctx, GetParam());
  ASSERT_NE(initial, kInvalidTerm);
  Semantics sem(ctx);
  std::vector<TermId> states{initial};
  std::unordered_set<TermId> seen{initial};
  for (std::size_t i = 0; i < states.size(); ++i) {
    const TermId s = states[i];
    const std::vector<Transition> fast = sem.prioritized(s);
    std::vector<Transition> full = sem.transitions(s);
    prioritize(ctx.actions(), full);
    ASSERT_EQ(fast, full) << "state #" << i << " of " << GetParam().file;
    for (const Transition& tr : fast)
      if (seen.insert(tr.target).second) states.push_back(tr.target);
    ASSERT_LT(states.size(), kMaxStates);
  }
  EXPECT_GT(states.size(), 1u);
  EXPECT_GE(sem.stats().candidates, sem.stats().kept);
}

// The fan memo is an optimization only: a memo-free Semantics over the same
// Context yields the same fans on every reachable state.
TEST_P(ShippedModelSemantics, MemoFreeAgreesWithMemoized) {
  Context ctx;
  const TermId initial = translate_shipped(ctx, GetParam());
  ASSERT_NE(initial, kInvalidTerm);
  Semantics memo(ctx);
  Semantics plain(ctx, /*memoize=*/false);
  std::vector<TermId> states{initial};
  std::unordered_set<TermId> seen{initial};
  for (std::size_t i = 0; i < states.size(); ++i) {
    const TermId s = states[i];
    const std::vector<Transition> fan = memo.prioritized(s);
    ASSERT_EQ(fan, plain.prioritized(s))
        << "state #" << i << " of " << GetParam().file;
    ASSERT_EQ(memo.transitions(s), plain.transitions(s))
        << "state #" << i << " of " << GetParam().file;
    for (const Transition& tr : fan)
      if (seen.insert(tr.target).second) states.push_back(tr.target);
    ASSERT_LT(states.size(), kMaxStates);
  }
  EXPECT_GT(memo.stats().memo_hits, 0u);
  EXPECT_EQ(plain.stats().memo_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShippedModels, ShippedModelSemantics, ::testing::ValuesIn(kShippedModels),
    [](const ::testing::TestParamInfo<ShippedModel>& info) {
      return std::string(info.param.file);
    });

}  // namespace
