#include "aadl/instance.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "util/string_utils.hpp"

namespace aadlsched::aadl {

namespace {

constexpr int kMaxDepth = 32;

}  // namespace

const ComponentInstance* ComponentInstance::find_child(
    std::string_view lowered) const {
  for (const auto& c : children)
    if (c->name == lowered) return c.get();
  return nullptr;
}

ComponentInstance* ComponentInstance::find_child(std::string_view lowered) {
  for (auto& c : children)
    if (c->name == lowered) return c.get();
  return nullptr;
}

const ComponentInstance* ComponentInstance::resolve(
    const std::vector<std::string>& path) const {
  const ComponentInstance* cur = this;
  for (const std::string& seg : path) {
    cur = cur->find_child(seg);
    if (!cur) return nullptr;
  }
  return cur;
}

std::string SemanticConnection::describe() const {
  std::string out;
  out += source ? source->path : "?";
  out += ".";
  out += source_port;
  out += " -> ";
  out += destination ? destination->path : "?";
  out += ".";
  out += destination_port;
  return out;
}

const ComponentInstance* InstanceModel::find(
    std::string_view dotted_path) const {
  if (!root) return nullptr;
  if (dotted_path.empty()) return root.get();
  const ComponentInstance* cur = root.get();
  for (std::string_view seg : util::split(dotted_path, '.')) {
    cur = cur->find_child(util::to_lower(seg));
    if (!cur) return nullptr;
  }
  return cur;
}

std::vector<const ComponentInstance*> InstanceModel::threads_on(
    const ComponentInstance* processor) const {
  std::vector<const ComponentInstance*> out;
  for (const ComponentInstance* t : threads) {
    auto it = bindings.find(t);
    if (it != bindings.end() && it->second == processor) out.push_back(t);
  }
  return out;
}

namespace {

class Instantiator {
 public:
  Instantiator(const Model& model, util::DiagnosticEngine& diags)
      : model_(model), diags_(diags) {}

  std::unique_ptr<InstanceModel> run(std::string_view root_impl) {
    const std::string lowered = util::to_lower(root_impl);
    const ComponentImpl* impl = model_.find_impl(lowered);
    if (!impl) {
      diags_.error({}, "root implementation '" + std::string(root_impl) +
                           "' not found");
      return nullptr;
    }
    auto im = std::make_unique<InstanceModel>();
    im_ = im.get();
    im->root = build(impl->category, impl->type_name, impl, "", "", nullptr, 0);
    if (!im->root) return nullptr;
    collect(im->root.get());
    scatter_contained(im->root.get());
    append_own(im->root.get());
    resolve_connections();
    resolve_processor_bindings();
    return im;
  }

 private:
  std::unique_ptr<ComponentInstance> build(Category cat,
                                           const std::string& type_name,
                                           const ComponentImpl* impl,
                                           const std::string& name,
                                           const std::string& path,
                                           ComponentInstance* parent,
                                           int depth) {
    if (depth > kMaxDepth) {
      diags_.error({}, "instantiation exceeds depth " +
                           std::to_string(kMaxDepth) +
                           " (recursive classifiers?) at '" + path + "'");
      return nullptr;
    }
    auto inst = std::make_unique<ComponentInstance>();
    inst->category = cat;
    inst->name = name;
    inst->path = path;
    inst->impl = impl;
    inst->type = model_.find_type(type_name);
    inst->parent = parent;
    if (impl) {
      for (const Subcomponent& sc : impl->subcomponents) {
        const std::string child_path =
            path.empty() ? sc.name : path + "." + sc.name;
        const ComponentImpl* child_impl = nullptr;
        std::string child_type = sc.classifier;
        if (!sc.classifier.empty()) {
          child_impl = model_.find_impl(sc.classifier);
          if (child_impl) {
            child_type = child_impl->type_name;
          } else if (!model_.find_type(sc.classifier)) {
            diags_.warning(sc.loc, "classifier '" + sc.classifier +
                                       "' of subcomponent '" + child_path +
                                       "' not found; instantiating bare");
          }
        }
        auto child = build(sc.category, child_type, child_impl, sc.name,
                           child_path, inst.get(), depth + 1);
        if (child) inst->children.push_back(std::move(child));
      }
    }
    return inst;
  }

  void collect(ComponentInstance* inst) {
    switch (inst->category) {
      case Category::Thread: im_->threads.push_back(inst); break;
      case Category::Processor: im_->processors.push_back(inst); break;
      case Category::Bus: im_->buses.push_back(inst); break;
      case Category::Device: im_->devices.push_back(inst); break;
      case Category::Data: im_->data_components.push_back(inst); break;
      default: break;
    }
    for (auto& c : inst->children) collect(c.get());
  }

  // --- property index (ComponentInstance::properties) -----------------------

  static AppliedProperty applied(const PropertyAssociation& pa) {
    const std::string_view name = pa.name;
    const auto pos = name.rfind("::");
    return {name, pos == std::string_view::npos ? name : name.substr(pos + 2),
            &pa.value};
  }

  // Each `applies to` target is resolved once, at its declaring scope. The
  // walk is post-order, so every scope below an ancestor has scattered
  // before it: the nearest declaration lands first in a target's list.
  void scatter_contained(ComponentInstance* scope) {
    for (auto& c : scope->children) scatter_contained(c.get());
    if (!scope->impl) return;
    for (const PropertyAssociation& pa : scope->impl->properties) {
      for (const auto& path : pa.applies_to) {
        // resolve() only descends, so only an empty path names the scope
        // itself; an association never applies to its own declarer.
        ComponentInstance* target = scope->resolve(path);
        if (target && target != scope)
          target->properties.push_back(applied(pa));
      }
    }
  }

  // After every contained association: the implementation overrides the
  // type, and both yield to any ancestor's `applies to`.
  void append_own(ComponentInstance* inst) {
    for (const auto* props :
         {inst->impl ? &inst->impl->properties : nullptr,
          inst->type ? &inst->type->properties : nullptr}) {
      if (!props) continue;
      for (const PropertyAssociation& pa : *props)
        if (pa.applies_to.empty()) inst->properties.push_back(applied(pa));
    }
    for (auto& c : inst->children) append_own(c.get());
  }

  // --- semantic connections ------------------------------------------------

  struct Endpoint {
    const ComponentInstance* inst = nullptr;
    std::string port;

    bool operator<(const Endpoint& o) const {
      return inst != o.inst ? inst < o.inst : port < o.port;
    }
    bool operator==(const Endpoint& o) const = default;
  };

  struct Edge {
    Endpoint src;
    Endpoint dst;
    std::string name;
    const ComponentInstance* context = nullptr;  // where it was declared
    std::optional<FeatureKind> kind;
  };

  std::optional<Endpoint> resolve_endpoint(
      const ComponentInstance* ctx, const std::vector<std::string>& path,
      util::SourceLoc loc) {
    if (path.size() == 1) {
      return Endpoint{ctx, path[0]};
    }
    if (path.size() == 2) {
      const ComponentInstance* child = ctx->find_child(path[0]);
      if (!child) {
        diags_.error(loc, "connection endpoint '" + path[0] + "." + path[1] +
                              "': no subcomponent '" + path[0] + "' in '" +
                              (ctx->path.empty() ? "<root>" : ctx->path) +
                              "'");
        return std::nullopt;
      }
      return Endpoint{child, path[1]};
    }
    diags_.error(loc, "connection endpoints must have 1 or 2 segments");
    return std::nullopt;
  }

  const Feature* endpoint_feature(const Endpoint& ep) const {
    return ep.inst->type ? ep.inst->type->find_feature(ep.port) : nullptr;
  }

  void resolve_connections() {
    std::vector<Edge> edges;
    collect_edges(im_->root.get(), edges);

    // Index edges by source endpoint for chain following.
    std::multimap<Endpoint, const Edge*> by_src;
    for (const Edge& e : edges) by_src.emplace(e.src, &e);

    // Access connections (thread <-> data/bus) become direct records; they
    // do not chain. Port connections starting at a thread/device out port
    // are chased to their ultimate destinations.
    for (const Edge& e : edges) {
      if (!e.src.inst->is_thread_or_device()) continue;
      // Only start at genuine out ports of the source (or unknown types).
      if (const Feature* f = endpoint_feature(e.src)) {
        if (f->direction == Direction::In) continue;
      }
      chase(e, by_src);
    }
  }

  void collect_edges(const ComponentInstance* inst, std::vector<Edge>& out) {
    if (inst->impl) {
      for (const ConnectionDecl& cd : inst->impl->connections) {
        if (cd.kind == FeatureKind::BusAccess ||
            cd.kind == FeatureKind::DataAccess)
          continue;  // access connections: out of the translation's scope
        auto src = resolve_endpoint(inst, cd.source, cd.loc);
        auto dst = resolve_endpoint(inst, cd.destination, cd.loc);
        if (!src || !dst) continue;
        out.push_back(Edge{*src, *dst, cd.name, inst, cd.kind});
        if (cd.bidirectional)
          out.push_back(Edge{*dst, *src, cd.name, inst, cd.kind});
      }
    }
    for (const auto& c : inst->children) collect_edges(c.get(), out);
  }

  void chase(const Edge& first, const std::multimap<Endpoint, const Edge*>& by_src) {
    struct State {
      Endpoint at;
      std::vector<const Edge*> chain;
    };
    std::deque<State> work;
    work.push_back(State{first.dst, {&first}});
    std::set<Endpoint> visited;
    while (!work.empty()) {
      State st = std::move(work.front());
      work.pop_front();
      if (st.chain.size() > 64) continue;  // cycle guard
      if (st.at.inst->is_thread_or_device()) {
        emit_semantic(first, st);
        continue;
      }
      auto [lo, hi] = by_src.equal_range(st.at);
      if (lo == hi) {
        // Dead end: a connection into a non-thread component with no
        // continuation. Harmless (e.g. a device we do not model), ignore.
        continue;
      }
      for (auto it = lo; it != hi; ++it) {
        State next;
        next.at = it->second->dst;
        next.chain = st.chain;
        next.chain.push_back(it->second);
        work.push_back(std::move(next));
      }
    }
  }

  void emit_semantic(const Edge& first, const auto& st) {
    SemanticConnection sc;
    sc.source = first.src.inst;
    sc.source_port = first.src.port;
    sc.destination = st.at.inst;
    sc.destination_port = st.at.port;
    for (const Edge* e : st.chain) sc.via.push_back(e->name);

    // Kind: destination feature wins, then source feature, then the first
    // declared kind hint, then data port.
    if (const Feature* f = endpoint_feature(st.at)) {
      sc.kind = f->kind;
    } else if (const Feature* f2 = endpoint_feature(first.src)) {
      sc.kind = f2->kind;
    } else {
      for (const Edge* e : st.chain)
        if (e->kind) {
          sc.kind = *e->kind;
          break;
        }
    }

    // Bus binding: any Actual_Connection_Binding applying to a connection
    // name along the chain, declared at or above its context.
    for (const Edge* e : st.chain) {
      if (const ComponentInstance* bus = connection_bus(e)) {
        sc.bus = bus;
        break;
      }
    }
    im_->connections.push_back(std::move(sc));
  }

  const ComponentInstance* connection_bus(const Edge* e) {
    // Search the declaring context and its ancestors for
    // Actual_Connection_Binding applies to <this connection name>.
    for (const ComponentInstance* scope = e->context; scope;
         scope = scope->parent) {
      if (!scope->impl) continue;
      for (const PropertyAssociation& pa : scope->impl->properties) {
        if (!ends_with_name(pa.name, "actual_connection_binding")) continue;
        for (const auto& target : pa.applies_to) {
          if (target.size() == 1 && target[0] == e->name &&
              scope == e->context) {
            if (const auto* ref =
                    std::get_if<ReferenceValue>(&pa.value.data)) {
              const ComponentInstance* bus = scope->resolve(ref->path);
              if (!bus)
                diags_.warning(pa.loc, "connection binding of '" + e->name +
                                           "' references unknown component");
              return bus;
            }
          }
        }
      }
    }
    return nullptr;
  }

  static bool ends_with_name(std::string_view qualified,
                             std::string_view name) {
    const auto pos = qualified.rfind("::");
    const std::string_view last =
        pos == std::string_view::npos ? qualified : qualified.substr(pos + 2);
    return last == name;
  }

  // --- processor bindings ---------------------------------------------------

  struct Binding {
    const ComponentInstance* target = nullptr;
    const ComponentInstance* processor = nullptr;
    std::size_t depth = 0;
  };

  void resolve_processor_bindings() {
    std::vector<Binding> found;
    walk_bindings(im_->root.get(), found);
    // Shallower (less specific) targets first, deeper override.
    std::stable_sort(found.begin(), found.end(),
                     [](const Binding& a, const Binding& b) {
                       return a.depth < b.depth;
                     });
    for (const Binding& bind : found) {
      apply_binding(bind.target, bind.processor);
    }
  }

  void walk_bindings(const ComponentInstance* inst,
                     std::vector<Binding>& out) {
    if (inst->impl) {
      for (const PropertyAssociation& pa : inst->impl->properties) {
        if (!ends_with_name(pa.name, "actual_processor_binding")) continue;
        const auto* ref = std::get_if<ReferenceValue>(&pa.value.data);
        if (!ref) {
          diags_.warning(pa.loc,
                         "Actual_Processor_Binding value is not a reference");
          continue;
        }
        const ComponentInstance* cpu = inst->resolve(ref->path);
        if (!cpu || cpu->category != Category::Processor) {
          diags_.error(pa.loc,
                       "Actual_Processor_Binding does not reference a "
                       "processor instance");
          continue;
        }
        if (pa.applies_to.empty()) {
          out.push_back({inst, cpu, path_depth(inst->path)});
          continue;
        }
        for (const auto& target_path : pa.applies_to) {
          const ComponentInstance* target = inst->resolve(target_path);
          if (!target) {
            diags_.error(pa.loc, "binding target '" +
                                     util::join(
                                         {target_path.begin(),
                                          target_path.end()},
                                         ".") +
                                     "' not found");
            continue;
          }
          out.push_back({target, cpu, path_depth(target->path)});
        }
      }
    }
    for (const auto& c : inst->children) walk_bindings(c.get(), out);
  }

  static std::size_t path_depth(const std::string& path) {
    if (path.empty()) return 0;
    return 1 + static_cast<std::size_t>(
                   std::count(path.begin(), path.end(), '.'));
  }

  void apply_binding(const ComponentInstance* target,
                     const ComponentInstance* cpu) {
    if (target->category == Category::Thread) {
      im_->bindings[target] = cpu;
      return;
    }
    for (const auto& c : target->children) apply_binding(c.get(), cpu);
  }

  const Model& model_;
  util::DiagnosticEngine& diags_;
  InstanceModel* im_ = nullptr;
};

}  // namespace

// Context chains for find_connection_property, keyed by the InstanceModel.
// Stored inside the model would be cleaner; to keep the public structs
// simple we re-derive the information on demand instead.
const PropertyValue* find_connection_property(
    const InstanceModel& model, const SemanticConnection& conn,
    std::string_view lowered_name) {
  // 1) Feature-level association on the destination thread's type
  //    (written as  port { Queue_Size => 2; }  and stored with
  //    applies_to = [port name]).
  if (conn.destination && conn.destination->type) {
    for (const PropertyAssociation& pa : conn.destination->type->properties) {
      if (pa.name != lowered_name) continue;
      for (const auto& t : pa.applies_to)
        if (t.size() == 1 && t[0] == conn.destination_port) return &pa.value;
    }
  }
  // 2) Associations applying to any syntactic connection name of the chain,
  //    searched over the whole instance tree.
  struct Walker {
    const SemanticConnection& conn;
    std::string_view name;
    const PropertyValue* found = nullptr;

    void visit(const ComponentInstance* inst) {
      if (found) return;
      if (inst->impl) {
        for (const PropertyAssociation& pa : inst->impl->properties) {
          if (pa.name != name) {
            // also accept qualified names ending in ::name
            const auto pos = pa.name.rfind("::");
            if (pos == std::string::npos ||
                pa.name.substr(pos + 2) != name)
              continue;
          }
          for (const auto& t : pa.applies_to) {
            if (t.size() != 1) continue;
            for (const std::string& via : conn.via) {
              if (t[0] == via) {
                found = &pa.value;
                return;
              }
            }
          }
        }
      }
      for (const auto& c : inst->children) visit(c.get());
    }
  };
  Walker w{conn, lowered_name};
  if (model.root) w.visit(model.root.get());
  return w.found;
}

const PropertyValue* find_property(const InstanceModel& /*model*/,
                                   const ComponentInstance& inst,
                                   std::string_view lowered_name) {
  for (const AppliedProperty& p : inst.properties)
    if (p.name == lowered_name || p.last == lowered_name) return p.value;
  return nullptr;
}

std::unique_ptr<InstanceModel> instantiate(const Model& model,
                                           std::string_view root_impl,
                                           util::DiagnosticEngine& diags) {
  Instantiator inst(model, diags);
  return inst.run(root_impl);
}

}  // namespace aadlsched::aadl
