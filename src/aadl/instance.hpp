// AADL instantiation: declarative model -> instance model.
//
// Implements the paper's preconditions (§4.1): the system must be
// completely instantiated and bound. Starting from a root system
// implementation we build the component instance tree, resolve *semantic
// connections* (ultimate source -> ultimate destination through the
// component hierarchy, §2), resolve processor bindings
// (Actual_Processor_Binding, inherited by threads from their enclosing
// process) and connection-to-bus bindings (Actual_Connection_Binding).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aadl/ast.hpp"
#include "util/diagnostics.hpp"

namespace aadlsched::aadl {

/// One property association that applies to an instance, as find_property
/// matches it.
struct AppliedProperty {
  std::string_view name;  // as declared, e.g. "timing_properties::period"
  std::string_view last;  // the part after the last "::" (name if none)
  const PropertyValue* value = nullptr;
};

struct ComponentInstance {
  Category category = Category::System;
  std::string name;  // lowercased subcomponent name ("" for the root)
  std::string path;  // dotted instance path from the root, e.g. "hci.refspeed"
  const ComponentType* type = nullptr;  // may be null (unresolved classifier)
  const ComponentImpl* impl = nullptr;  // may be null (type-only classifier)
  ComponentInstance* parent = nullptr;
  std::vector<std::unique_ptr<ComponentInstance>> children;
  /// Every association that applies here, in find_property's precedence
  /// order (the first match wins); instantiate fills it once:
  ///   1. contained (`applies to`) associations naming this instance, the
  ///      nearest declaring ancestor first, declaration order within one
  ///      ancestor;
  ///   2. the own implementation's associations without `applies to`;
  ///   3. the own type's associations without `applies to`.
  /// Views into the Model, which must outlive the instance tree.
  std::vector<AppliedProperty> properties;

  const ComponentInstance* find_child(std::string_view lowered) const;
  ComponentInstance* find_child(std::string_view lowered);
  /// Resolve a dotted path relative to this instance.
  const ComponentInstance* resolve(
      const std::vector<std::string>& path) const;
  ComponentInstance* resolve(const std::vector<std::string>& path) {
    return const_cast<ComponentInstance*>(std::as_const(*this).resolve(path));
  }
  bool is_thread_or_device() const {
    return category == Category::Thread || category == Category::Device;
  }
};

/// One fully resolved semantic connection (§2): thread/device ultimate
/// source to thread/device ultimate destination, with the chain of
/// syntactic connections it traverses.
struct SemanticConnection {
  const ComponentInstance* source = nullptr;
  std::string source_port;  // lowercased feature name
  const ComponentInstance* destination = nullptr;
  std::string destination_port;
  FeatureKind kind = FeatureKind::DataPort;
  std::vector<std::string> via;  // names of the syntactic connections
  const ComponentInstance* bus = nullptr;  // Actual_Connection_Binding

  std::string describe() const;
};

struct InstanceModel {
  std::unique_ptr<ComponentInstance> root;
  std::vector<ComponentInstance*> threads;
  std::vector<ComponentInstance*> processors;
  std::vector<ComponentInstance*> buses;
  std::vector<ComponentInstance*> devices;
  std::vector<ComponentInstance*> data_components;
  std::vector<SemanticConnection> connections;
  /// thread instance -> processor instance (paper precondition 1).
  std::map<const ComponentInstance*, const ComponentInstance*> bindings;

  const ComponentInstance* find(std::string_view dotted_path) const;
  /// Threads bound to the given processor.
  std::vector<const ComponentInstance*> threads_on(
      const ComponentInstance* processor) const;
};

/// Property lookup on an instance: the first of inst.properties whose
/// declared name is `lowered_name` or ends in "::" + `lowered_name` (so a
/// qualified name matches only itself). Returns nullptr if absent.
const PropertyValue* find_property(const InstanceModel& model,
                                   const ComponentInstance& inst,
                                   std::string_view lowered_name);

/// Property attached to a semantic connection (searched on the syntactic
/// connections' `applies to` associations along the chain, e.g.
/// Queue_Size / Overflow_Handling_Protocol / Urgency on the last port or
/// connection).
const PropertyValue* find_connection_property(
    const InstanceModel& model, const SemanticConnection& conn,
    std::string_view lowered_name);

/// Instantiate `root_impl` ("type.impl", lowercased or not). Reports
/// structural errors to diags; returns nullptr on fatal failure.
std::unique_ptr<InstanceModel> instantiate(const Model& model,
                                           std::string_view root_impl,
                                           util::DiagnosticEngine& diags);

}  // namespace aadlsched::aadl
