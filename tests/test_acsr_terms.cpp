// Unit tests for term construction: hash-consing and normalization.
#include <gtest/gtest.h>

#include "acsr/builder.hpp"
#include "acsr/context.hpp"
#include "acsr/printer.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;

namespace {

class TermTest : public ::testing::Test {
 protected:
  Context ctx;
  TermTable& tt = ctx.terms();

  ActionId action(std::initializer_list<std::pair<const char*, Priority>> rs) {
    std::vector<ResourceUse> uses;
    for (auto& [name, p] : rs) uses.push_back({ctx.resource(name), p});
    return ctx.actions().intern(std::move(uses));
  }
};

TEST_F(TermTest, NilIsTermZero) {
  EXPECT_EQ(tt.nil(), kNil);
  EXPECT_EQ(tt.kind(kNil), TermKind::Nil);
}

TEST_F(TermTest, HashConsingDeduplicates) {
  const TermId a = tt.act(action({{"cpu", 1}}), kNil);
  const TermId b = tt.act(action({{"cpu", 1}}), kNil);
  EXPECT_EQ(a, b);
  const TermId c = tt.act(action({{"cpu", 2}}), kNil);
  EXPECT_NE(a, c);
}

TEST_F(TermTest, ActionCanonicalization) {
  // Order of resource uses must not matter.
  EXPECT_EQ(action({{"cpu", 1}, {"bus", 2}}), action({{"bus", 2}, {"cpu", 1}}));
  // Duplicate resource keeps the higher priority.
  EXPECT_EQ(action({{"cpu", 1}, {"cpu", 5}}), action({{"cpu", 5}}));
}

TEST_F(TermTest, ChoiceDropsNilAndDeduplicates) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  EXPECT_EQ(tt.choice({p, kNil}), p);
  EXPECT_EQ(tt.choice({p, p}), p);
  EXPECT_EQ(tt.choice({kNil, kNil}), kNil);
  EXPECT_EQ(tt.choice({}), kNil);
}

TEST_F(TermTest, ChoiceFlattensAndSorts) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  const TermId q = tt.act(action({{"cpu", 2}}), kNil);
  const TermId r = tt.act(action({{"cpu", 3}}), kNil);
  const TermId pq = tt.choice({p, q});
  EXPECT_EQ(tt.choice({pq, r}), tt.choice({r, q, p}));
  EXPECT_EQ(tt.choice({pq, q}), pq);
}

TEST_F(TermTest, ParallelKeepsDuplicates) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  const TermId pp = tt.parallel({p, p});
  EXPECT_NE(pp, p);
  EXPECT_EQ(tt.kind(pp), TermKind::Parallel);
  EXPECT_EQ(tt.payload(pp).size(), 2u);
}

TEST_F(TermTest, ParallelIsCommutativeByConstruction) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  const TermId q = tt.act(action({{"bus", 1}}), kNil);
  EXPECT_EQ(tt.parallel({p, q}), tt.parallel({q, p}));
  // Associativity via flattening.
  const TermId r = tt.act(action({{"mem", 1}}), kNil);
  EXPECT_EQ(tt.parallel({tt.parallel({p, q}), r}),
            tt.parallel({p, tt.parallel({q, r})}));
}

TEST_F(TermTest, SingletonCompositionsCollapse) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  EXPECT_EQ(tt.choice({p}), p);
  EXPECT_EQ(tt.parallel({p}), p);
}

TEST_F(TermTest, RestrictOfNilIsNil) {
  const EventSetId f = ctx.event_sets().intern({ctx.event("done")});
  EXPECT_EQ(tt.restrict(f, kNil), kNil);
}

TEST_F(TermTest, ScopeTimeoutZeroCollapses) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  const TermId handler = tt.act(action({{"bus", 1}}), kNil);
  ScopeParts parts;
  parts.body = p;
  parts.time_left = 0;
  parts.timeout_handler = handler;
  EXPECT_EQ(tt.scope(parts), handler);
  parts.timeout_handler = kInvalidTerm;
  EXPECT_EQ(tt.scope(parts), kNil);
}

TEST_F(TermTest, ScopeRoundTripsParts) {
  const TermId p = tt.act(action({{"cpu", 1}}), kNil);
  ScopeParts parts;
  parts.body = p;
  parts.time_left = 7;
  parts.exception_label = ctx.event("complete");
  parts.exception_cont = kNil;
  parts.interrupt_handler = p;
  parts.timeout_handler = kInvalidTerm;
  const TermId s = tt.scope(parts);
  const ScopeParts back = tt.scope_parts(s);
  EXPECT_EQ(back.body, parts.body);
  EXPECT_EQ(back.time_left, parts.time_left);
  EXPECT_EQ(back.exception_label, parts.exception_label);
  EXPECT_EQ(back.exception_cont, parts.exception_cont);
  EXPECT_EQ(back.interrupt_handler, parts.interrupt_handler);
  EXPECT_EQ(back.timeout_handler, parts.timeout_handler);
}

TEST_F(TermTest, CallArgumentsDistinguishStates) {
  Builder b(ctx);
  const DefId d = ctx.declare("P");
  const ParamValue a1[] = {1, 2};
  const ParamValue a2[] = {1, 3};
  EXPECT_NE(tt.call(d, a1), tt.call(d, a2));
  EXPECT_EQ(tt.call(d, a1), tt.call(d, a1));
}

TEST_F(TermTest, DisjointnessAndMerge) {
  const ActionId a = action({{"cpu", 1}});
  const ActionId b = action({{"bus", 2}});
  const ActionId c = action({{"cpu", 3}, {"net", 1}});
  auto& at = ctx.actions();
  EXPECT_EQ(at.combine(a, c), ActionTable::kOverlap);
  EXPECT_EQ(at.combine(kIdleAction, c), c);
  EXPECT_EQ(at.combine(a, kIdleAction), a);
  // The first combine of a pair interns the union as the next id; repeats,
  // in either order, return it without interning anything.
  const std::size_t before = at.size();
  const ActionId ab = at.combine(a, b);
  EXPECT_EQ(ab, before);
  EXPECT_EQ(at.combine(a, b), ab);
  EXPECT_EQ(at.combine(b, a), ab);
  EXPECT_EQ(at.combine(a, c), ActionTable::kOverlap);
  EXPECT_EQ(at.size(), before + 1);
  EXPECT_EQ(ab, action({{"cpu", 1}, {"bus", 2}}));
}

TEST_F(TermTest, PreemptionOrderOnActions) {
  auto& at = ctx.actions();
  const ActionId idle = kIdleAction;
  const ActionId lo = action({{"cpu", 1}});
  const ActionId hi = action({{"cpu", 2}});
  const ActionId hi_bus = action({{"cpu", 2}, {"bus", 1}});
  const ActionId other = action({{"bus", 1}});

  // Idle is preempted by any resource-using action with a positive priority.
  EXPECT_TRUE(at.preempts(idle, lo));
  EXPECT_FALSE(at.preempts(lo, idle));
  // Same resource, higher priority preempts.
  EXPECT_TRUE(at.preempts(lo, hi));
  EXPECT_FALSE(at.preempts(hi, lo));
  // Superset with strictly higher priority preempts.
  EXPECT_TRUE(at.preempts(lo, hi_bus));
  // Disjoint resources: no preemption either way.
  EXPECT_FALSE(at.preempts(lo, other));
  EXPECT_FALSE(at.preempts(other, lo));
  // a has a resource b lacks: not preempted even at higher priority.
  EXPECT_FALSE(at.preempts(hi_bus, hi));
  // Equality never preempts.
  EXPECT_FALSE(at.preempts(hi, hi));
}

TEST_F(TermTest, PreemptionRequiresStrictImprovement) {
  auto& at = ctx.actions();
  const ActionId a = action({{"cpu", 2}});
  const ActionId b = action({{"cpu", 2}, {"bus", 0}});
  // b adds bus at priority 0: no strict improvement anywhere -> no preempt.
  EXPECT_FALSE(at.preempts(a, b));
  const ActionId c = action({{"cpu", 2}, {"bus", 1}});
  EXPECT_TRUE(at.preempts(a, c));
}

TEST_F(TermTest, PrinterRendersGroundTerms) {
  Builder b(ctx);
  const TermId p =
      tt.act(action({{"cpu", 1}}), tt.evt(ctx.event("done"), true, 2, kNil));
  Printer pr(ctx);
  EXPECT_EQ(pr.ground_term(p), "{(cpu,1)} : (done!,2) . NIL");
}

}  // namespace
