#include "aadl/resources.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <variant>

#include "aadl/properties.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::aadl {

std::string_view to_string(ConcurrencyProtocol p) {
  switch (p) {
    case ConcurrencyProtocol::None: return "none";
    case ConcurrencyProtocol::PriorityInheritance:
      return "priority_inheritance";
    case ConcurrencyProtocol::PriorityCeiling: return "priority_ceiling";
  }
  return "?";
}

namespace {

/// Join point of an access chain: a data/thread endpoint or a pass-through
/// `data access` feature of an intermediate component. The same feature is
/// (sub, name) both from the enclosing implementation and from inside sub's
/// own implementation, so chains join on node identity with no extra logic.
struct Node {
  const ComponentInstance* inst = nullptr;
  std::string port;

  bool operator<(const Node& o) const {
    return inst != o.inst ? inst < o.inst : port < o.port;
  }
  bool operator==(const Node& o) const = default;
};

struct AccessEdge {
  Node a, b;
  std::string name;  // syntactic connection name (lowercased by the parser)
};

/// Resolve one endpoint of an access connection declared in `ctx`. A data
/// component is canonicalized to (data, "") whichever of its features the
/// connection names.
std::optional<Node> resolve_access_endpoint(
    const ComponentInstance* ctx, const std::vector<std::string>& path) {
  if (path.size() == 1) {
    if (const ComponentInstance* child = ctx->find_child(path[0])) {
      if (child->category == Category::Data) return Node{child, ""};
    }
    return Node{ctx, path[0]};
  }
  if (path.size() == 2) {
    const ComponentInstance* child = ctx->find_child(path[0]);
    if (!child) return std::nullopt;
    if (child->category == Category::Data) return Node{child, ""};
    return Node{child, path[1]};
  }
  return std::nullopt;
}

void collect_access_edges(const ComponentInstance* inst,
                          std::vector<AccessEdge>& edges,
                          std::vector<std::string>& unresolved) {
  if (inst->impl) {
    for (const ConnectionDecl& cd : inst->impl->connections) {
      if (cd.kind != FeatureKind::DataAccess) continue;
      auto a = resolve_access_endpoint(inst, cd.source);
      auto b = resolve_access_endpoint(inst, cd.destination);
      if (!a || !b) {
        unresolved.push_back(
            "access connection '" + cd.name + "' in '" +
            (inst->path.empty() ? "<root>" : inst->path) +
            "' has an endpoint that does not resolve");
        continue;
      }
      edges.push_back(AccessEdge{*a, *b, cd.name});
    }
  }
  for (const auto& c : inst->children) collect_access_edges(c.get(), edges,
                                                            unresolved);
}

ConcurrencyProtocol parse_protocol(const std::string& lowered, bool& unknown) {
  unknown = false;
  if (lowered.empty() || lowered == "none_specified" || lowered == "none")
    return ConcurrencyProtocol::None;
  if (lowered.find("ceiling") != std::string::npos)
    return ConcurrencyProtocol::PriorityCeiling;
  if (lowered.find("inherit") != std::string::npos || lowered == "pip")
    return ConcurrencyProtocol::PriorityInheritance;
  unknown = true;
  return ConcurrencyProtocol::None;
}

/// Critical_Section_Time applied (in any implementation scope) to one of
/// the chain's syntactic connection names; mirrors find_connection_property.
std::int64_t section_time_ns(const InstanceModel& model,
                             const std::vector<std::string>& via) {
  struct Walker {
    const std::vector<std::string>& via;
    std::int64_t found = -1;

    void visit(const ComponentInstance* inst) {
      if (found >= 0) return;
      if (inst->impl) {
        for (const PropertyAssociation& pa : inst->impl->properties) {
          std::string_view name = pa.name;
          const auto pos = name.rfind("::");
          if (pos != std::string_view::npos) name = name.substr(pos + 2);
          if (name != "critical_section_time") continue;
          for (const auto& t : pa.applies_to) {
            if (t.size() != 1) continue;
            if (std::find(via.begin(), via.end(), t[0]) == via.end())
              continue;
            if (const auto* iu = std::get_if<IntWithUnit>(&pa.value.data)) {
              util::DiagnosticEngine scratch("<resources>");
              if (auto ns = time_to_ns(*iu, scratch, pa.loc)) {
                found = *ns;
                return;
              }
            }
          }
        }
      }
      for (const auto& c : inst->children) visit(c.get());
    }
  };
  Walker w{via};
  if (model.root) w.visit(model.root.get());
  return w.found;
}

}  // namespace

SharedResourceModel extract_shared_resources(const InstanceModel& model) {
  SharedResourceModel out;
  std::vector<AccessEdge> edges;
  collect_access_edges(model.root.get(), edges, out.unresolved);
  if (edges.empty()) return out;

  std::map<Node, std::vector<const AccessEdge*>> adj;
  for (const AccessEdge& e : edges) {
    adj[e.a].push_back(&e);
    adj[e.b].push_back(&e);
  }

  std::set<const AccessEdge*> reached_from_data;
  for (const ComponentInstance* data : model.data_components) {
    const Node root{data, ""};
    if (!adj.count(root)) continue;

    // BFS over the undirected access graph, remembering the edge that first
    // reached each node so a thread's chain of connection names (`via`) can
    // be reconstructed for the Critical_Section_Time lookup.
    std::map<Node, std::pair<Node, const AccessEdge*>> parent;
    std::deque<Node> work{root};
    std::set<Node> visited{root};
    SharedResourceInfo info;
    info.data = data;
    while (!work.empty()) {
      const Node at = work.front();
      work.pop_front();
      auto it = adj.find(at);
      if (it == adj.end()) continue;
      for (const AccessEdge* e : it->second) {
        reached_from_data.insert(e);
        const Node next = e->a == at ? e->b : e->a;
        if (!visited.insert(next).second) continue;
        parent[next] = {at, e};
        if (next.inst->category == Category::Thread) {
          ResourceAccess acc;
          acc.thread = next.inst;
          acc.feature = next.port;
          for (Node n = next; n != root;) {
            const auto& [prev, via_edge] = parent.at(n);
            acc.via.push_back(via_edge->name);
            n = prev;
          }
          std::reverse(acc.via.begin(), acc.via.end());
          acc.section_ns = section_time_ns(model, acc.via);
          info.accesses.push_back(std::move(acc));
        } else {
          work.push_back(next);  // pass-through feature; keep chaining
        }
      }
    }
    if (info.accesses.empty()) {
      out.unresolved.push_back("data component '" + data->path +
                               "' has access connections but no resolvable "
                               "thread access");
      continue;
    }
    // Deterministic order: model.threads order, then feature name.
    std::map<const ComponentInstance*, std::size_t> order;
    for (std::size_t i = 0; i < model.threads.size(); ++i)
      order[model.threads[i]] = i;
    std::stable_sort(info.accesses.begin(), info.accesses.end(),
                     [&](const ResourceAccess& x, const ResourceAccess& y) {
                       const auto ox = order.count(x.thread)
                                           ? order.at(x.thread)
                                           : order.size();
                       const auto oy = order.count(y.thread)
                                           ? order.at(y.thread)
                                           : order.size();
                       return ox != oy ? ox < oy : x.feature < y.feature;
                     });
    if (const PropertyValue* pv = find_property(
            model, *data, "concurrency_control_protocol")) {
      if (const auto* s = std::get_if<std::string>(&pv->data)) {
        info.protocol_name = util::to_lower(*s);
        info.protocol = parse_protocol(info.protocol_name,
                                       info.protocol_unknown);
      }
    }
    out.resources.push_back(std::move(info));
  }

  for (const AccessEdge& e : edges)
    if (!reached_from_data.count(&e))
      out.unresolved.push_back("access connection '" + e.name +
                               "' does not reach a data component");
  return out;
}

}  // namespace aadlsched::aadl
