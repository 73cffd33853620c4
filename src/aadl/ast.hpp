// Declarative AST for the AADL textual subset (SAE AS5506) used by the
// paper: packages; thread / process / system / processor / bus / device /
// data / memory component types and implementations; ports and bus access
// features; port connections; subcomponents; property associations with
// units, ranges, references, lists and `applies to`; mode declarations are
// parsed and retained but (exactly like the paper, §4.1) not translated.
//
// AADL identifiers are case-insensitive; the parser preserves the original
// spelling for diagnostics and lowercases for lookup. Subcomponent::name,
// PropertyAssociation::name and IntWithUnit::unit are lowercased in the
// parser only, which is their one construction site; lookups
// (find_property, find_connection_property, time_to_ns, the fingerprint)
// compare them as stored, without folding again. Feature names keep their
// spelling because diagnostics print them, so feature lookups fold.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "util/diagnostics.hpp"

namespace aadlsched::aadl {

enum class Category : std::uint8_t {
  System,
  Process,
  ThreadGroup,
  Thread,
  Processor,
  Bus,
  Device,
  Data,
  Memory,
  Subprogram,
};

std::string_view to_string(Category c);

enum class Direction : std::uint8_t { In, Out, InOut };

enum class FeatureKind : std::uint8_t {
  DataPort,
  EventPort,
  EventDataPort,
  BusAccess,     // requires/provides bus access
  DataAccess,    // requires/provides data access
};

struct Feature {
  std::string name;
  Direction direction = Direction::In;
  FeatureKind kind = FeatureKind::DataPort;
  bool provides = false;           // for access features
  std::string classifier;          // optional data/bus classifier reference
  util::SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Property values
// ---------------------------------------------------------------------------

struct PropertyValue;

struct IntWithUnit {
  std::int64_t value = 0;
  std::string unit;  // lowercased; empty for plain integers

  friend bool operator==(const IntWithUnit&, const IntWithUnit&) = default;
};

struct RangeValue {
  IntWithUnit lo;
  IntWithUnit hi;
};

struct ReferenceValue {
  std::vector<std::string> path;  // dotted instance path, lowercased
};

struct ListValue {
  std::vector<PropertyValue> items;
};

struct PropertyValue {
  std::variant<IntWithUnit, RangeValue, std::string /*identifier/enum*/,
               ReferenceValue, ListValue, double, bool>
      data;

  bool is_int() const { return std::holds_alternative<IntWithUnit>(data); }
  bool is_range() const { return std::holds_alternative<RangeValue>(data); }
  bool is_ident() const { return std::holds_alternative<std::string>(data); }
  bool is_reference() const {
    return std::holds_alternative<ReferenceValue>(data);
  }
  bool is_list() const { return std::holds_alternative<ListValue>(data); }
};

struct PropertyAssociation {
  std::string name;  // lowercased, e.g. "dispatch_protocol"
  PropertyValue value;
  /// `applies to` instance paths (lowercased dotted segments); empty when
  /// the association applies to the enclosing declaration itself.
  std::vector<std::vector<std::string>> applies_to;
  util::SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct Subcomponent {
  std::string name;  // lowercased
  Category category = Category::System;
  /// Classifier reference: "type" or "type.impl" (lowercased).
  std::string classifier;
  util::SourceLoc loc;
};

struct ConnectionDecl {
  std::string name;
  /// Declared kind keyword if any (port / data port / event port / ...).
  std::optional<FeatureKind> kind;
  /// Endpoint paths, 1 segment (own feature) or 2 (subcomponent.feature).
  std::vector<std::string> source;
  std::vector<std::string> destination;
  bool bidirectional = false;  // <-> (access connections)
  util::SourceLoc loc;
};

struct ModeDecl {
  std::string name;
  bool initial = false;
};

struct ComponentType {
  Category category = Category::System;
  std::string name;  // lowercased
  std::string display_name;
  std::string extends;  // optional parent type (lowercased), "" if none
  std::vector<Feature> features;
  std::vector<PropertyAssociation> properties;
  util::SourceLoc loc;

  const Feature* find_feature(std::string_view lowered_name) const;
};

struct ComponentImpl {
  Category category = Category::System;
  std::string type_name;  // lowercased type part
  std::string impl_name;  // lowercased "type.impl"
  std::string display_name;
  std::vector<Subcomponent> subcomponents;
  std::vector<ConnectionDecl> connections;
  std::vector<PropertyAssociation> properties;
  std::vector<ModeDecl> modes;
  util::SourceLoc loc;
};

struct Package {
  std::string name;  // lowercased; may contain "::"
  std::string display_name;
  std::map<std::string, ComponentType> types;       // by lowercased name
  std::map<std::string, ComponentImpl> impls;       // by lowercased impl name
};

/// A parsed model: one or more packages.
struct Model {
  std::map<std::string, Package> packages;

  const ComponentType* find_type(std::string_view name) const;
  const ComponentImpl* find_impl(std::string_view name) const;
};

}  // namespace aadlsched::aadl
