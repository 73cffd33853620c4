// Random Restrict(Parallel) states for the fold and shape-memo tests,
// described once as plain data and built into any number of Contexts, so a
// test can compare two Contexts that interned the same terms in the same
// order.
#pragma once

#include <iterator>
#include <utility>
#include <vector>

#include "acsr/context.hpp"
#include "util/rng.hpp"

namespace aadlsched::acsr::random_parallel {

struct Offer {
  bool timed = true;
  std::vector<std::pair<int, Priority>> uses;  // timed: resource index, prio
  int event = 0;                               // event offer
  bool send = false;
  Priority priority = 0;
};

struct Spec {
  std::vector<std::vector<Offer>> components;
  std::vector<int> restricted;  // event indices
};

constexpr const char* kResourceNames[] = {"r0", "r1", "r2",
                                          "r3", "r4", "r5"};
constexpr const char* kEventNames[] = {"e0", "e1", "e2"};
constexpr int kResources = std::size(kResourceNames);
constexpr int kEvents = std::size(kEventNames);

inline Spec random_spec(util::Xoshiro256& rng) {
  Spec s;
  const std::size_t n = rng.uniform_int(2, 8);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Offer> offers;
    // One component in twelve offers no timed step; a lone idle step (the
    // shape of a waiting thread) is common.
    const std::size_t timed =
        rng.uniform_int(0, 11) == 0 ? 0 : rng.uniform_int(1, 4);
    for (std::size_t k = 0; k < timed; ++k) {
      Offer o;
      if (rng.uniform() >= 0.35) {
        const std::size_t width = rng.uniform_int(1, 2);
        for (std::size_t w = 0; w < width; ++w)
          o.uses.emplace_back(
              static_cast<int>(rng.uniform_int(0, kResources - 1)),
              static_cast<Priority>(rng.uniform_int(0, 4)) - 1);
      }
      offers.push_back(o);
    }
    const std::size_t events = rng.uniform_int(0, 2);
    for (std::size_t k = 0; k < events; ++k) {
      Offer o;
      o.timed = false;
      o.event = static_cast<int>(rng.uniform_int(0, kEvents - 1));
      o.send = rng.uniform() < 0.5;
      o.priority = static_cast<Priority>(rng.uniform_int(0, 3));
      offers.push_back(o);
    }
    s.components.push_back(std::move(offers));
  }
  for (int e = 0; e < kEvents; ++e)
    if (rng.uniform() < 0.5) s.restricted.push_back(e);
  return s;
}

/// The prefix term `o`.target built into `ctx`.
inline TermId offer_term(Context& ctx, const Offer& o, TermId target) {
  TermTable& tt = ctx.terms();
  if (!o.timed)
    return tt.evt(ctx.event(kEventNames[o.event]), o.send, o.priority,
                  target);
  std::vector<ResourceUse> uses;
  for (const auto& [r, p] : o.uses)
    uses.push_back({ctx.resource(kResourceNames[r]), p});
  return tt.act(ctx.actions().intern(uses), target);
}

/// The event set of `events` (event indices) built into `ctx`.
inline EventSetId event_set(Context& ctx, const std::vector<int>& events) {
  std::vector<Event> fset;
  for (const int e : events) fset.push_back(ctx.event(kEventNames[e]));
  return ctx.event_sets().intern(fset);
}

/// Restrict(restricted, Parallel(components)) built into `ctx`; returns the
/// Restrict term. Every offer leads to its own target term.
inline TermId build(Context& ctx, const Spec& s) {
  TermTable& tt = ctx.terms();
  const Event marker = ctx.event("target");
  Priority serial = 0;
  std::vector<TermId> comps;
  for (const std::vector<Offer>& offers : s.components) {
    std::vector<TermId> alts;
    for (const Offer& o : offers)
      alts.push_back(offer_term(ctx, o, tt.evt(marker, true, serial++, kNil)));
    comps.push_back(tt.choice(alts));
  }
  return tt.restrict(event_set(ctx, s.restricted), tt.parallel(comps));
}

}  // namespace aadlsched::acsr::random_parallel
