// The livelock pass (AL012): the static shadow of the DESIGN.md §7
// livelock finding. A cycle of event connections between
// instantly-dispatching, instantly-completing threads lets dispatches chase
// each other without time ever advancing — the explorer only detects
// single-state instantaneous self-loops, not multi-state cycles, so we
// reject them up front. It reads the instance model (cmin and dispatch
// protocols), not the ACSR network; its tier keeps the name of the
// property it guards.
//
// The tier's two checks over translated terms, unguarded recursion (AL010)
// and Par3 resource conflicts (AL011), are invariants of the translator's
// output, tested over every shipped model, the corpus and generated fleets
// (tests/acsr_invariants.hpp), not per-request work.
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aadl/properties.hpp"
#include "lint/lint.hpp"
#include "lint/passes.hpp"

namespace aadlsched::lint {

namespace {

// --- AL012 ----------------------------------------------------------------

class InstantaneousCyclePass final : public Pass {
 public:
  const CheckInfo& info() const override {
    static const CheckInfo kInfo{
        "AL012", "instantaneous-cycle",
        "event-connection cycles between instantly-dispatching, "
        "instantly-completing threads livelock without advancing time "
        "(DESIGN.md §7)",
        Tier::AcsrWellFormedness};
    return kInfo;
  }
  void run(const Subject& subject, Sink& sink) const override {
    const aadl::InstanceModel& m = subject.instance;
    const std::int64_t q = subject.quantum_ns;
    if (q <= 0) return;

    // A thread can participate in an instantaneous dispatch cycle when it
    // is event-dispatched with no enforced separation and may complete
    // with zero quanta of execution.
    std::map<const aadl::ComponentInstance*, std::size_t> index;
    std::vector<const aadl::ComponentInstance*> nodes;
    for (const aadl::ComponentInstance* t : m.threads) {
      util::DiagnosticEngine scratch("<lint>");
      const auto tp = aadl::thread_properties(m, *t, scratch);
      if (!tp) continue;
      const bool instant_complete = tp->compute_min_ns <= 0;
      const bool instant_dispatch =
          tp->dispatch == aadl::DispatchProtocol::Aperiodic ||
          (tp->dispatch == aadl::DispatchProtocol::Sporadic &&
           tp->period_ns / q == 0);
      if (instant_complete && instant_dispatch) {
        index[t] = nodes.size();
        nodes.push_back(t);
      }
    }
    if (nodes.empty()) return;

    std::vector<std::vector<std::size_t>> adj(nodes.size());
    for (const aadl::SemanticConnection& sc : m.connections) {
      if (sc.kind != aadl::FeatureKind::EventPort &&
          sc.kind != aadl::FeatureKind::EventDataPort)
        continue;
      const auto s = index.find(sc.source);
      const auto d = index.find(sc.destination);
      if (s != index.end() && d != index.end())
        adj[s->second].push_back(d->second);
    }

    // Report each cycle once, anchored at its smallest-index member.
    std::set<std::string> reported;
    for (std::size_t start = 0; start < nodes.size(); ++start) {
      // Iterative DFS tracking the path explicitly; only cycles whose
      // smallest member is `start` are reported (succ < start is pruned).
      std::vector<std::pair<std::size_t, std::size_t>> frames;  // node, next
      frames.emplace_back(start, 0);
      std::set<std::size_t> visited{start};
      while (!frames.empty()) {
        auto& [node, next] = frames.back();
        if (next >= adj[node].size()) {
          frames.pop_back();
          continue;
        }
        const std::size_t succ = adj[node][next++];
        if (succ == start) {
          std::ostringstream cyc;
          for (const auto& fr : frames) cyc << nodes[fr.first]->path << " -> ";
          cyc << nodes[start]->path;
          if (reported.insert(cyc.str()).second) {
            sink.error(nodes[start]->path,
                       "instantaneous dispatch cycle: " + cyc.str() +
                           "; every hop dispatches and completes in zero "
                           "quanta, so dispatches can chase each other "
                           "forever without time advancing (livelock, "
                           "DESIGN.md §7). Give some thread a nonzero "
                           "Compute_Execution_Time minimum or a sporadic "
                           "separation of at least one quantum");
          }
          continue;
        }
        if (succ < start || !visited.insert(succ).second) continue;
        frames.emplace_back(succ, 0);
      }
    }
  }
};

}  // namespace

void register_acsr_passes(Registry& reg) {
  reg.add(std::make_unique<InstantaneousCyclePass>());
}

}  // namespace aadlsched::lint
