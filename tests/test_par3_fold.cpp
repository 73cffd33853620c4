// The Par3 fold and Par4 pairing of Semantics::parallel_candidates against
// a reference copy of the level-by-level fold it replaced (n-wide rows per
// partial, disjointness test then merge, all-pairs Par4 over whole fans).
//
// ActionIds and TermIds are handed out in intern order, and canonical
// transition order, BFS order, traces and checkpoints all sort by them. So
// a faster fold must intern exactly what the reference interns, in the same
// order: the differential test compares whole ActionTables entry by entry,
// and the pin test hashes the tables every shipped model leaves behind.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <tuple>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/preemption.hpp"
#include "acsr/semantics.hpp"
#include "random_parallel.hpp"
#include "translate/translator.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "versa/explorer.hpp"

using namespace aadlsched;
using namespace aadlsched::acsr;
using namespace aadlsched::acsr::random_parallel;

namespace {

// ---------------------------------------------------------------------------
// Reference: the fold as it was written before the parent-link rewrite.

bool disjoint(const ActionTable& at, ActionId a, ActionId b) {
  const auto& ua = at.uses(a);
  const auto& ub = at.uses(b);
  std::size_t i = 0, j = 0;
  while (i < ua.size() && j < ub.size()) {
    if (ua[i].resource == ub[j].resource) return false;
    if (ua[i].resource < ub[j].resource)
      ++i;
    else
      ++j;
  }
  return true;
}

ActionId merge(ActionTable& at, ActionId a, ActionId b) {
  if (a == kIdleAction) return b;
  if (b == kIdleAction) return a;
  std::vector<ResourceUse> u(at.uses(a).begin(), at.uses(a).end());
  u.insert(u.end(), at.uses(b).begin(), at.uses(b).end());
  return at.intern(u);
}

struct Candidates {
  std::vector<Label> labels;
  std::vector<TermId> rows;  // n-wide row per label
};

/// Par1/Par2, all-pairs Par4, then the Par3 fold with one n-wide row per
/// partial, level by level. `restricted` filters Par1/Par2 events as the
/// labels-first path does; kNoRestriction means none.
constexpr EventSetId kNoRestriction = static_cast<EventSetId>(-1);

Candidates reference_candidates(Context& ctx, Semantics& kid_sem,
                                TermId par, EventSetId restricted) {
  ActionTable& actions = ctx.actions();
  const auto payload = ctx.terms().payload(par);
  const std::vector<TermId> kids(payload.begin(), payload.end());
  const std::size_t n = kids.size();
  std::vector<std::vector<Transition>> fans;
  for (const TermId k : kids) fans.push_back(kid_sem.transitions(k));

  Candidates c;
  const auto add = [&](const Label& label) {
    c.labels.push_back(label);
    const std::size_t at = c.rows.size();
    c.rows.insert(c.rows.end(), kids.begin(), kids.end());
    return c.rows.data() + at;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (const Transition& tr : fans[i]) {
      if (tr.label.is_timed()) continue;
      if (restricted != kNoRestriction &&
          tr.label.kind == Label::Kind::Event &&
          ctx.event_sets().contains(restricted, tr.label.event))
        continue;
      add(tr.label)[i] = tr.target;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      for (const Transition& ti : fans[i]) {
        if (ti.label.kind != Label::Kind::Event) continue;
        for (const Transition& tj : fans[j]) {
          if (tj.label.kind != Label::Kind::Event) continue;
          if (ti.label.event != tj.label.event ||
              ti.label.send == tj.label.send)
            continue;
          TermId* row = add(Label::make_tau(
              ti.label.event, ti.label.priority + tj.label.priority));
          row[i] = ti.target;
          row[j] = tj.target;
        }
      }
    }
  }
  std::vector<ActionId> fold{kIdleAction}, next_fold;
  std::vector<TermId> rows = kids, next_rows;
  for (std::size_t i = 0; i < n && !fold.empty(); ++i) {
    next_fold.clear();
    next_rows.clear();
    for (std::size_t p = 0; p < fold.size(); ++p) {
      for (const Transition& tr : fans[i]) {
        if (!tr.label.is_timed()) continue;
        if (!disjoint(actions, fold[p], tr.label.action)) continue;
        next_fold.push_back(merge(actions, fold[p], tr.label.action));
        next_rows.insert(next_rows.end(), rows.begin() + p * n,
                         rows.begin() + (p + 1) * n);
        next_rows[next_rows.size() - n + i] = tr.target;
      }
    }
    fold.swap(next_fold);
    rows.swap(next_rows);
  }
  for (std::size_t p = 0; p < fold.size(); ++p) {
    c.labels.push_back(Label::make_action(fold[p]));
    c.rows.insert(c.rows.end(), rows.begin() + p * n,
                  rows.begin() + (p + 1) * n);
  }
  return c;
}

void canonicalize(std::vector<Transition>& ts) {
  const auto key = [](const Transition& t) {
    return std::make_tuple(static_cast<int>(t.label.kind), t.label.action,
                           t.label.event * 2u + (t.label.send ? 1u : 0u),
                           static_cast<std::uint32_t>(t.label.priority),
                           t.target);
  };
  std::sort(ts.begin(), ts.end(), [&](const Transition& a,
                                      const Transition& b) {
    return key(a) < key(b);
  });
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
}

/// Reference for Semantics::transitions on a Parallel: intern every
/// candidate's target in candidate order.
std::vector<Transition> reference_transitions(Context& ctx, TermId par) {
  Semantics kid_sem(ctx);
  const Candidates c = reference_candidates(ctx, kid_sem, par, kNoRestriction);
  const std::size_t n = ctx.terms().payload(par).size();
  std::vector<Transition> out;
  for (std::size_t k = 0; k < c.labels.size(); ++k)
    out.push_back(Transition{
        c.labels[k], ctx.terms().parallel(std::span<const TermId>(
                         c.rows.data() + k * n, n))});
  canonicalize(out);
  return out;
}

/// Reference for Semantics::prioritized on Restrict(fset, Parallel):
/// intern only the survivors' targets, in candidate order.
std::vector<Transition> reference_prioritized(Context& ctx, TermId state) {
  const EventSetId fset = ctx.terms().node(state).a;
  const TermId par = ctx.terms().node(state).b;
  Semantics kid_sem(ctx);
  const Candidates c = reference_candidates(ctx, kid_sem, par, fset);
  std::vector<std::uint8_t> keep;
  SkylineScratch scratch;
  mark_survivors(ctx.actions(), c.labels, keep, scratch);
  const std::size_t n = ctx.terms().payload(par).size();
  std::vector<Transition> out;
  for (std::size_t k = 0; k < c.labels.size(); ++k) {
    if (!keep[k]) continue;
    const TermId target = ctx.terms().parallel(
        std::span<const TermId>(c.rows.data() + k * n, n));
    out.push_back(Transition{c.labels[k], ctx.terms().restrict(fset, target)});
  }
  canonicalize(out);
  return out;
}

void expect_same_tables(const Context& a, const Context& b, int trial) {
  ASSERT_EQ(a.actions().size(), b.actions().size()) << "trial " << trial;
  for (ActionId id = 0; id < a.actions().size(); ++id)
    ASSERT_TRUE(
        std::ranges::equal(a.actions().uses(id), b.actions().uses(id)))
        << "trial " << trial << ", action " << id;
  ASSERT_EQ(a.terms().size(), b.terms().size()) << "trial " << trial;
}

// Seeded differential: on random Parallels (2–8 components, 0–4 timed
// offers each with idle among them, overlapping resources, events with
// send/receive partners) the production fold gives the reference's fan and
// leaves the reference's ActionTable behind, id for id — for the full fan
// (transitions) and for the labels-first fan of the Restrict around it.
TEST(Par3Fold, MatchesTheReferenceFoldIdForId) {
  util::Xoshiro256 rng(20261018);
  int merged = 0;  // trials whose fold interned a new action
  for (int trial = 0; trial < 2000; ++trial) {
    const Spec spec = random_spec(rng);

    Context ref_ctx, ctx;
    const TermId ref_state = build(ref_ctx, spec);
    const TermId state = build(ctx, spec);
    ASSERT_EQ(ref_state, state);
    const TermId par = ctx.terms().node(state).b;
    const std::vector<Transition> expected =
        reference_transitions(ref_ctx, par);
    Semantics sem(ctx);
    const std::size_t before = ctx.actions().size();
    ASSERT_EQ(sem.transitions(par), expected) << "trial " << trial;
    if (ctx.actions().size() > before) ++merged;
    expect_same_tables(ref_ctx, ctx, trial);

    Context ref_pctx, pctx;
    const TermId pstate = build(pctx, spec);
    build(ref_pctx, spec);
    Semantics psem(pctx);
    ASSERT_EQ(psem.prioritized(pstate),
              reference_prioritized(ref_pctx, pstate))
        << "trial " << trial;
    expect_same_tables(ref_pctx, pctx, trial);
  }
  EXPECT_GT(merged, 500);
}

// ---------------------------------------------------------------------------
// Pin: the intern sequence every shipped model leaves behind.

struct Pin {
  const char* file;
  const char* root;
  int quantum_ms;
  std::size_t states;
  std::size_t actions;
  std::uint64_t action_hash;  // every entry's uses, in id order
  std::size_t terms;
};

// Recorded with the level-by-level fold (the reference above) before the
// parent-link rewrite; exploring with the CLI's defaults (first deadlock
// stops the run, traces recorded). The TermTable column was re-recorded
// when explored states moved from the term table to the explorer's state
// table: it now counts the translation, the component terms and the
// terms of a deadlocking run's trace.
constexpr Pin kPins[] = {
    {"cruise_control", "CruiseControlSystem.impl", 1, 65098, 20,
     0xa4f517723f8394f3ULL, 19384},
    {"cruise_control", "CruiseControlSystem.impl", 2, 6113, 20,
     0xa4f517723f8394f3ULL, 4284},
    {"cruise_control", "CruiseControlSystem.impl", 5, 470, 20,
     0xa4f517723f8394f3ULL, 948},
    {"cruise_control", "CruiseControlSystem.impl", 10, 197, 18,
     0x93a1015b68365be4ULL, 450},
    {"avionics", "Avionics.impl", 2, 334, 23, 0xe7ac20cdec914f37ULL, 406},
    {"avionics", "Avionics.impl", 5, 128, 9, 0xd33186039a50d527ULL, 231},
    {"avionics", "Avionics.impl", 10, 80, 7, 0x0360cba27d464565ULL, 212},
    {"storm", "Storm.impl", 2, 1376, 6, 0x6b5b76ca38775e0bULL, 611},
    {"storm", "Storm.impl", 5, 273, 6, 0x6b5b76ca38775e0bULL, 298},
    {"storm", "Storm.impl", 10, 383, 6, 0x6b5b76ca38775e0bULL, 240},
    {"symmetric", "Symmetric.impl", 2, 33524, 2, 0xf8b2f1d5378f0abdULL, 626},
    {"symmetric", "Symmetric.impl", 5, 5854, 2, 0xf8b2f1d5378f0abdULL, 338},
    {"symmetric", "Symmetric.impl", 10, 1043, 2, 0xf8b2f1d5378f0abdULL, 242},
    {"quantum_ladder", "QuantumLadder.impl", 2, 16, 3,
     0x9071c71bcda5d6bfULL, 203},
    {"quantum_ladder", "QuantumLadder.impl", 5, 28, 3,
     0x9071c71bcda5d6bfULL, 161},
    {"quantum_ladder", "QuantumLadder.impl", 10, 19, 3,
     0x9071c71bcda5d6bfULL, 94},
    {"slow_periodic", "SlowPeriodic.impl", 2, 129255, 6,
     0x797043567222ca0bULL, 13029},
    {"slow_periodic", "SlowPeriodic.impl", 5, 53655, 6,
     0x797043567222ca0bULL, 5229},
    {"slow_periodic", "SlowPeriodic.impl", 10, 28455, 6,
     0x797043567222ca0bULL, 2629},
    {"dual_rig", "DualRig.impl", 2, 662, 6, 0xf06ea4173096cd96ULL, 294},
    {"dual_rig", "DualRig.impl", 5, 51, 6, 0xf06ea4173096cd96ULL, 122},
    {"dual_rig", "DualRig.impl", 10, 70, 6, 0xa2a9bf1cb1590814ULL, 109},
};

std::uint64_t hash_actions(const ActionTable& at) {
  std::uint64_t h = 0x51ed270b1bd5c3a7ULL;
  for (ActionId id = 0; id < at.size(); ++id) {
    const auto& uses = at.uses(id);
    h = util::hash_combine(h, uses.size());
    for (const ResourceUse& u : uses) {
      h = util::hash_combine(h, u.resource);
      h = util::hash_combine(h, static_cast<std::uint32_t>(u.priority));
    }
  }
  return h;
}

void PrintTo(const Pin& pin, std::ostream* os) {
  *os << pin.file << " @ " << pin.quantum_ms << " ms";
}

class Par3FoldPin : public ::testing::TestWithParam<Pin> {};

TEST_P(Par3FoldPin, InternSequenceIsUnchanged) {
  const Pin& pin = GetParam();
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + pin.file +
                   ".aadl");
  std::stringstream src;
  src << in.rdbuf();
  util::DiagnosticEngine diags(pin.file);
  aadl::Model model;
  ASSERT_TRUE(aadl::parse_aadl(model, src.str(), diags))
      << diags.render_all();
  auto inst = aadl::instantiate(model, pin.root, diags);
  ASSERT_TRUE(inst && !diags.has_errors()) << diags.render_all();
  Context ctx;
  translate::TranslateOptions topts;
  topts.quantum_ns = static_cast<std::int64_t>(pin.quantum_ms) * 1'000'000;
  auto tr = translate::translate(ctx, *inst, diags, topts);
  ASSERT_TRUE(tr) << diags.render_all();
  Semantics sem(ctx);
  const versa::ExploreResult r = versa::explore(sem, tr->initial);
  EXPECT_EQ(r.states, pin.states);
  EXPECT_EQ(ctx.actions().size(), pin.actions);
  EXPECT_EQ(hash_actions(ctx.actions()), pin.action_hash);
  EXPECT_EQ(ctx.terms().size(), pin.terms);
}

INSTANTIATE_TEST_SUITE_P(
    ShippedModels, Par3FoldPin, ::testing::ValuesIn(kPins),
    [](const ::testing::TestParamInfo<Pin>& info) {
      return std::string(info.param.file) + "_q" +
             std::to_string(info.param.quantum_ms);
    });

}  // namespace
