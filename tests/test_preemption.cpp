// Focused tests for the preemption relation, including the design-note
// counterexample: decorating actions with per-thread marker resources would
// destroy the preemption order (this is why trace lift-back inspects state
// terms instead of polluting actions — DESIGN.md §6).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "acsr/builder.hpp"
#include "acsr/preemption.hpp"
#include "acsr/semantics.hpp"
#include "util/rng.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

class PreemptionTest : public ::testing::Test {
 protected:
  Context ctx;
  Builder b{ctx};

  ActionId action(std::initializer_list<std::pair<const char*, Priority>> rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return ctx.actions().intern(std::move(uses));
  }

  Label act(ActionId a) { return Label::make_action(a); }
};

TEST_F(PreemptionTest, CleanActionsPreemptAsExpected) {
  const Label lo = act(action({{"cpu", 3}}));
  const Label hi = act(action({{"cpu", 5}}));
  EXPECT_TRUE(preempted_by(ctx.actions(), lo, hi));
  EXPECT_FALSE(preempted_by(ctx.actions(), hi, lo));
}

TEST_F(PreemptionTest, MarkerResourcesBreakPreemption) {
  // The same two steps decorated with private per-thread marker resources:
  // the high-priority step no longer preempts, because the low step uses a
  // resource (its marker) that the high step does not.
  const Label lo = act(action({{"cpu", 3}, {"run_t2", 1}}));
  const Label hi = act(action({{"cpu", 5}, {"run_t1", 1}}));
  EXPECT_FALSE(preempted_by(ctx.actions(), lo, hi));
  EXPECT_FALSE(preempted_by(ctx.actions(), hi, lo));
}

TEST_F(PreemptionTest, IdleIsPreemptedByAnyPositiveWork) {
  const Label idle = act(kIdleAction);
  const Label work = act(action({{"cpu", 1}}));
  EXPECT_TRUE(preempted_by(ctx.actions(), idle, work));
  EXPECT_FALSE(preempted_by(ctx.actions(), work, idle));
}

TEST_F(PreemptionTest, ZeroPriorityWorkDoesNotPreemptIdle) {
  const Label idle = act(kIdleAction);
  const Label work = act(action({{"cpu", 0}}));
  EXPECT_FALSE(preempted_by(ctx.actions(), idle, work));
}

TEST_F(PreemptionTest, EventPreemptionNeedsSameLabelAndDirection) {
  const Event e = ctx.event("e");
  const Event f = ctx.event("f");
  const Label e1 = Label::make_event(e, true, 1);
  const Label e2 = Label::make_event(e, true, 2);
  const Label e2r = Label::make_event(e, false, 2);
  const Label f9 = Label::make_event(f, true, 9);
  EXPECT_TRUE(preempted_by(ctx.actions(), e1, e2));
  EXPECT_FALSE(preempted_by(ctx.actions(), e2, e1));
  EXPECT_FALSE(preempted_by(ctx.actions(), e1, e2r));  // direction differs
  EXPECT_FALSE(preempted_by(ctx.actions(), e1, f9));   // label differs
}

TEST_F(PreemptionTest, TauOrdering) {
  const Label t1 = Label::make_tau(ctx.event("a"), 1);
  const Label t3 = Label::make_tau(ctx.event("b"), 3);
  // All taus share the silent label, regardless of their source event.
  EXPECT_TRUE(preempted_by(ctx.actions(), t1, t3));
  EXPECT_FALSE(preempted_by(ctx.actions(), t3, t1));
}

TEST_F(PreemptionTest, TauDoesNotPreemptEvents) {
  const Label tau = Label::make_tau(ctx.event("a"), 5);
  const Label ev = Label::make_event(ctx.event("e"), true, 1);
  EXPECT_FALSE(preempted_by(ctx.actions(), ev, tau));
  EXPECT_FALSE(preempted_by(ctx.actions(), tau, ev));
}

TEST_F(PreemptionTest, ActionNeverPreemptsAnything) {
  const Label work = act(action({{"cpu", 9}}));
  const Label tau0 = Label::make_tau(ctx.event("a"), 0);
  const Label ev = Label::make_event(ctx.event("e"), true, 0);
  EXPECT_FALSE(preempted_by(ctx.actions(), tau0, work));
  EXPECT_FALSE(preempted_by(ctx.actions(), ev, work));
  // Zero-priority tau does not preempt timed actions.
  EXPECT_FALSE(preempted_by(ctx.actions(), work, tau0));
}

TEST_F(PreemptionTest, PrioritizeKeepsMaximalSet) {
  std::vector<Transition> ts;
  ts.push_back({act(kIdleAction), kNil});
  ts.push_back({act(action({{"cpu", 1}})), kNil});
  ts.push_back({act(action({{"cpu", 2}})), kNil});
  ts.push_back({act(action({{"bus", 1}})), kNil});  // incomparable
  prioritize(ctx.actions(), ts);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[0].label.action, action({{"cpu", 2}}));
  EXPECT_EQ(ts[1].label.action, action({{"bus", 1}}));
}

TEST_F(PreemptionTest, PrioritizeOnEmptyAndSingleton) {
  std::vector<Transition> empty;
  prioritize(ctx.actions(), empty);
  EXPECT_TRUE(empty.empty());
  std::vector<Transition> one{{act(kIdleAction), kNil}};
  prioritize(ctx.actions(), one);
  EXPECT_EQ(one.size(), 1u);
}

// The all-pairs preemption loop mark_survivors() replaced, kept as the
// reference the skyline pass is checked against: a label survives iff no
// label of the whole set preempts it.
std::vector<std::uint8_t> all_pairs_survivors(const ActionTable& actions,
                                              std::span<const Label> labels) {
  std::vector<std::uint8_t> keep(labels.size(), 1);
  for (std::size_t i = 0; i < labels.size(); ++i)
    for (std::size_t j = 0; j < labels.size(); ++j)
      if (i != j && preempted_by(actions, labels[i], labels[j])) {
        keep[i] = 0;
        break;
      }
  return keep;
}

std::vector<std::uint8_t> skyline_survivors(const ActionTable& actions,
                                            std::span<const Label> labels) {
  std::vector<std::uint8_t> keep;
  SkylineScratch scratch;
  mark_survivors(actions, labels, keep, scratch);
  return keep;
}

TEST_F(PreemptionTest, PlainPrioritySumIsNotMonotone) {
  // {} ≺ {(r1,-5),(r2,1)} although Σp orders them the other way (0 > -4):
  // ordering the skyline by Σp would test the idle action first and keep
  // it. K = Σ max(p, 0) orders them 0 < 1.
  const std::vector<Label> labels{act(kIdleAction),
                                  act(action({{"r1", -5}, {"r2", 1}}))};
  ASSERT_TRUE(preempted_by(ctx.actions(), labels[0], labels[1]));
  EXPECT_EQ(skyline_survivors(ctx.actions(), labels),
            (std::vector<std::uint8_t>{0, 1}));
}

TEST_F(PreemptionTest, NegativePriorityPreemptionWithinOneKeyGroup) {
  // {(r,-5)} ≺ {(r,-1)} ≺ {(r,0)}, and all three have K = 0: only the
  // own-group test can see it.
  const std::vector<Label> labels{act(action({{"r", -5}})),
                                  act(action({{"r", 0}})),
                                  act(action({{"r", -1}}))};
  EXPECT_EQ(skyline_survivors(ctx.actions(), labels),
            (std::vector<std::uint8_t>{0, 1, 0}));
  EXPECT_EQ(skyline_survivors(ctx.actions(), labels),
            all_pairs_survivors(ctx.actions(), labels));
}

TEST_F(PreemptionTest, PositiveTauPreemptsEveryAction) {
  const std::vector<Label> labels{act(action({{"cpu", 9}})),
                                  Label::make_tau(ctx.event("a"), 1),
                                  act(kIdleAction)};
  std::vector<std::uint8_t> keep;
  SkylineScratch scratch;
  // No action-vs-action test runs once a positive tau is seen.
  EXPECT_EQ(mark_survivors(ctx.actions(), labels, keep, scratch), 0u);
  EXPECT_EQ(keep, (std::vector<std::uint8_t>{0, 1, 0}));
}

// Differential check: on seeded random label sets the skyline pass keeps
// exactly what the all-pairs loop keeps. The sets mix kinds, repeat labels,
// overlap resources, and use zero, negative and extreme int32 priorities —
// for taus too, and with and without a positive tau.
TEST_F(PreemptionTest, SkylineMatchesAllPairsOnRandomFans) {
  constexpr Priority kMin = std::numeric_limits<Priority>::min();
  constexpr Priority kMax = std::numeric_limits<Priority>::max();
  const Priority palette[] = {kMin, kMin + 1, -7, -1, 0, 0, 1, 2, 3,
                              kMax - 1, kMax};
  const Resource resources[] = {ctx.resource("r0"), ctx.resource("r1"),
                                ctx.resource("r2"), ctx.resource("r3")};
  const Event events[] = {ctx.event("e0"), ctx.event("e1")};
  util::Xoshiro256 rng(20261018);
  const auto pick = [&](auto& array) -> auto& {
    return array[rng.uniform_int(0, std::size(array) - 1)];
  };
  // Small-range priorities make ties and dominations common; the palette
  // reaches the int32 extremes.
  const auto priority = [&](bool extreme) {
    return extreme ? pick(palette)
                   : static_cast<Priority>(rng.uniform_int(0, 6)) - 3;
  };

  std::vector<std::uint8_t> keep;
  SkylineScratch scratch;  // reused across sets, as Semantics does
  for (int trial = 0; trial < 4000; ++trial) {
    const bool extreme = trial % 2 == 1;
    const std::uint64_t tau_share = rng.uniform_int(0, 2);  // 0: no taus
    const std::size_t n = rng.uniform_int(0, 48);
    std::vector<Label> labels;
    for (std::size_t k = 0; k < n; ++k) {
      if (!labels.empty() && rng.uniform() < 0.15) {
        labels.push_back(labels[rng.uniform_int(0, labels.size() - 1)]);
        continue;
      }
      const std::uint64_t roll = rng.uniform_int(0, 9);
      if (roll < tau_share) {
        labels.push_back(Label::make_tau(pick(events), priority(extreme)));
      } else if (roll < 3) {
        labels.push_back(Label::make_event(pick(events), rng.uniform() < 0.5,
                                           priority(extreme)));
      } else {
        std::vector<ResourceUse> uses;
        for (const Resource r : resources)
          if (rng.uniform() < 0.5) uses.push_back({r, priority(extreme)});
        labels.push_back(act(ctx.actions().intern(uses)));
      }
    }
    mark_survivors(ctx.actions(), labels, keep, scratch);
    ASSERT_EQ(keep, all_pairs_survivors(ctx.actions(), labels))
        << "trial " << trial << ", " << labels.size() << " labels";
  }
}

// Property-style sweep: preemption must be irreflexive and asymmetric on a
// grid of generated actions.
class PreemptionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PreemptionPropertyTest, IrreflexiveAndAsymmetric) {
  Context ctx;
  const auto [p1, p2, q1, q2] = GetParam();
  const Resource cpu = ctx.resource("cpu");
  const Resource bus = ctx.resource("bus");
  auto mk = [&](int a, int b) {
    std::vector<ResourceUse> uses;
    if (a >= 0) uses.push_back({cpu, a});
    if (b >= 0) uses.push_back({bus, b});
    return ctx.actions().intern(std::move(uses));
  };
  const Label x = Label::make_action(mk(p1, p2));
  const Label y = Label::make_action(mk(q1, q2));
  EXPECT_FALSE(preempted_by(ctx.actions(), x, x));
  EXPECT_FALSE(preempted_by(ctx.actions(), y, y));
  EXPECT_FALSE(preempted_by(ctx.actions(), x, y) &&
               preempted_by(ctx.actions(), y, x));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PreemptionPropertyTest,
    ::testing::Combine(::testing::Values(-1, 0, 1, 3),
                       ::testing::Values(-1, 0, 2),
                       ::testing::Values(-1, 0, 1, 3),
                       ::testing::Values(-1, 0, 2)));

}  // namespace
