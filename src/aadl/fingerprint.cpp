#include "aadl/fingerprint.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string_view>

#include "aadl/resources.hpp"
#include "util/hash.hpp"
#include "util/string_utils.hpp"

namespace aadlsched::aadl {

namespace {

std::string_view direction_tag(Direction d) {
  switch (d) {
    case Direction::In: return "in";
    case Direction::Out: return "out";
    case Direction::InOut: return "inout";
  }
  return "?";
}

std::string_view feature_kind_tag(FeatureKind k) {
  switch (k) {
    case FeatureKind::DataPort: return "data";
    case FeatureKind::EventPort: return "event";
    case FeatureKind::EventDataPort: return "eventdata";
    case FeatureKind::BusAccess: return "busaccess";
    case FeatureKind::DataAccess: return "dataaccess";
  }
  return "?";
}

void render_value(std::ostream& os, const PropertyValue& v);

void render_int(std::ostream& os, const IntWithUnit& v) {
  os << v.value;
  if (!v.unit.empty()) os << ' ' << v.unit;
}

void render_value(std::ostream& os, const PropertyValue& v) {
  if (const auto* i = std::get_if<IntWithUnit>(&v.data)) {
    render_int(os, *i);
  } else if (const auto* r = std::get_if<RangeValue>(&v.data)) {
    render_int(os, r->lo);
    os << " .. ";
    render_int(os, r->hi);
  } else if (const auto* s = std::get_if<std::string>(&v.data)) {
    // AADL identifiers/enums are case-insensitive; fold so RATE_MONOTONIC
    // and Rate_Monotonic fingerprint identically.
    os << util::to_lower(*s);
  } else if (const auto* ref = std::get_if<ReferenceValue>(&v.data)) {
    os << "ref(" << util::join(ref->path, ".") << ')';
  } else if (const auto* list = std::get_if<ListValue>(&v.data)) {
    os << '(';  // list order is semantic (e.g. binding lists) — preserved
    for (std::size_t i = 0; i < list->items.size(); ++i) {
      if (i) os << ", ";
      render_value(os, list->items[i]);
    }
    os << ')';
  } else if (const auto* d = std::get_if<double>(&v.data)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    os << buf;
  } else if (const auto* b = std::get_if<bool>(&v.data)) {
    os << (*b ? "true" : "false");
  }
}

/// Render one declared property list, mirroring find_property's
/// first-match-wins resolution: a later association that repeats an earlier
/// (name, applies-to target) is unreachable and must not perturb the hash.
/// The reachable survivors are then sorted, so re-ordering *distinct*
/// associations — a pure layout edit — is invisible.
void render_properties(std::ostream& os,
                       const std::vector<PropertyAssociation>& props) {
  std::set<std::string> seen;  // dedup keys, first wins
  std::vector<std::string> lines;
  for (const PropertyAssociation& pa : props) {
    const std::string& name = pa.name;
    std::ostringstream val;
    render_value(val, pa.value);
    if (pa.applies_to.empty()) {
      if (!seen.insert(name).second) continue;
      lines.push_back("  prop " + name + " = " + val.str());
      continue;
    }
    for (const auto& target : pa.applies_to) {
      const std::string tpath = util::join(target, ".");
      if (!seen.insert(name + " @ " + tpath).second) continue;
      lines.push_back("  prop " + name + " @ " + tpath + " = " + val.str());
    }
  }
  std::sort(lines.begin(), lines.end());
  for (const std::string& l : lines) os << l << '\n';
}

void render_component(std::ostream& os, const ComponentInstance& inst) {
  os << "component " << to_string(inst.category) << " \"" << inst.path
     << "\"\n";
  if (inst.type) {
    std::vector<std::string> feats;
    for (const Feature& f : inst.type->features) {
      std::ostringstream fs;
      fs << "  feature " << util::to_lower(f.name) << ' '
         << direction_tag(f.direction) << ' ' << feature_kind_tag(f.kind);
      if (f.provides) fs << " provides";
      if (!f.classifier.empty()) fs << ' ' << util::to_lower(f.classifier);
      feats.push_back(fs.str());
    }
    std::sort(feats.begin(), feats.end());
    for (const std::string& f : feats) os << f << '\n';
    render_properties(os, inst.type->properties);
  }
  if (inst.impl) render_properties(os, inst.impl->properties);
}

}  // namespace

std::string Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

std::string canonical_instance_text(const InstanceModel& model) {
  std::ostringstream os;
  os << "aadlsched-instance-v1\n";

  // Component instances in sorted path order. The tree shape is implied by
  // the dotted paths, so a flat sorted listing is canonical.
  std::vector<const ComponentInstance*> all;
  const auto collect = [&](const ComponentInstance& inst, auto&& self) -> void {
    all.push_back(&inst);
    for (const auto& child : inst.children) self(*child, self);
  };
  if (model.root) collect(*model.root, collect);
  std::sort(all.begin(), all.end(),
            [](const ComponentInstance* a, const ComponentInstance* b) {
              return a->path < b->path;
            });
  for (const ComponentInstance* inst : all) render_component(os, *inst);

  // Semantic connections, sorted; the syntactic `via` chain is a naming
  // artifact and deliberately excluded.
  std::vector<std::string> conns;
  for (const SemanticConnection& c : model.connections) {
    std::ostringstream cs;
    cs << "connection " << feature_kind_tag(c.kind) << " \""
       << (c.source ? c.source->path : "?") << '.' << c.source_port
       << "\" -> \"" << (c.destination ? c.destination->path : "?") << '.'
       << c.destination_port << '"';
    if (c.bus) cs << " bus \"" << c.bus->path << '"';
    conns.push_back(cs.str());
  }
  std::sort(conns.begin(), conns.end());
  for (const std::string& c : conns) os << c << '\n';

  // Shared-resource accesses (data access connections are not semantic
  // connections, but the static-analysis tier reads them, so they must
  // invalidate cached results). Models without access connections emit
  // nothing here and keep their pre-existing fingerprints.
  const SharedResourceModel srm = extract_shared_resources(model);
  std::vector<std::string> accs;
  for (const SharedResourceInfo& res : srm.resources) {
    for (const ResourceAccess& a : res.accesses) {
      std::ostringstream as;
      as << "access \"" << (a.thread ? a.thread->path : "?") << '.'
         << a.feature << "\" -> \"" << res.data->path << "\" protocol "
         << to_string(res.protocol) << " section " << a.section_ns;
      accs.push_back(as.str());
    }
  }
  for (const std::string& u : srm.unresolved)
    accs.push_back("access-unresolved \"" + u + '"');
  std::sort(accs.begin(), accs.end());
  for (const std::string& a : accs) os << a << '\n';

  // Processor bindings, sorted by thread path.
  std::vector<std::string> binds;
  for (const auto& [thread, proc] : model.bindings) {
    binds.push_back("binding \"" + thread->path + "\" -> \"" + proc->path +
                    "\"");
  }
  std::sort(binds.begin(), binds.end());
  for (const std::string& b : binds) os << b << '\n';

  return os.str();
}

Fingerprint instance_fingerprint(const InstanceModel& model) {
  const util::Hash128 h = util::fnv1a_128(canonical_instance_text(model));
  return Fingerprint{h.hi, h.lo};
}

}  // namespace aadlsched::aadl
