#include "aadl/fingerprint.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <string_view>
#include <vector>

#include "aadl/resources.hpp"
#include "util/hash.hpp"

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

std::string_view path_or_unknown(const ComponentInstance* inst) {
  return inst ? std::string_view(inst->path) : "?";
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

void append_lower(std::string& out, std::string_view s) {
  for (const char c : s)
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_joined(std::string& out, const std::vector<std::string>& parts) {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += '.';
    out += parts[i];
  }
}

void render_int(std::string& out, const IntWithUnit& v) {
  append_int(out, v.value);
  if (!v.unit.empty()) (out += ' ') += v.unit;
}

void render_value(std::string& out, const PropertyValue& v) {
  if (const auto* i = std::get_if<IntWithUnit>(&v.data)) {
    render_int(out, *i);
  } else if (const auto* r = std::get_if<RangeValue>(&v.data)) {
    render_int(out, r->lo);
    out += " .. ";
    render_int(out, r->hi);
  } else if (const auto* s = std::get_if<std::string>(&v.data)) {
    // AADL identifiers/enums are case-insensitive; fold so RATE_MONOTONIC
    // and Rate_Monotonic fingerprint identically.
    append_lower(out, *s);
  } else if (const auto* ref = std::get_if<ReferenceValue>(&v.data)) {
    out += "ref(";
    append_joined(out, ref->path);
    out += ')';
  } else if (const auto* list = std::get_if<ListValue>(&v.data)) {
    out += '(';  // list order is semantic (e.g. binding lists) — preserved
    for (std::size_t i = 0; i < list->items.size(); ++i) {
      if (i) out += ", ";
      render_value(out, list->items[i]);
    }
    out += ')';
  } else if (const auto* d = std::get_if<double>(&v.data)) {
    char buf[32];
    out.append(buf, static_cast<std::size_t>(
                        std::snprintf(buf, sizeof buf, "%.17g", *d)));
  } else if (const auto* b = std::get_if<bool>(&v.data)) {
    out += *b ? "true" : "false";
  }
}

/// One section of the canonical text: lines appended to one buffer, then
/// emitted in sorted order. Reused across sections, so a rendering
/// allocates a few buffers instead of a string per line.
class LineSet {
 public:
  /// Appends to text() form the current line until end_line(). The line's
  /// dedup key is the text up to `key_end` (a text() size), or all of it.
  std::string& text() { return buf_; }
  void end_line(std::size_t key_end = std::string::npos) {
    lines_.push_back({begin_, std::min(key_end, buf_.size()), buf_.size()});
    begin_ = buf_.size();
  }

  /// Keep only the first line of each key.
  void dedup_keys() {
    std::stable_sort(lines_.begin(), lines_.end(), [&](auto& a, auto& b) {
      return view(a.begin, a.key_end) < view(b.begin, b.key_end);
    });
    lines_.erase(std::unique(lines_.begin(), lines_.end(),
                             [&](auto& a, auto& b) {
                               return view(a.begin, a.key_end) ==
                                      view(b.begin, b.key_end);
                             }),
                 lines_.end());
  }

  /// Append the lines sorted, each with its newline, and start empty.
  void flush_sorted(std::string& out) {
    std::sort(lines_.begin(), lines_.end(), [&](auto& a, auto& b) {
      return view(a.begin, a.end) < view(b.begin, b.end);
    });
    for (const Line& l : lines_) (out += view(l.begin, l.end)) += '\n';
    lines_.clear();
    buf_.clear();
    begin_ = 0;
  }

 private:
  struct Line {
    std::size_t begin, key_end, end;
  };
  std::string_view view(std::size_t begin, std::size_t end) const {
    return std::string_view(buf_).substr(begin, end - begin);
  }

  std::string buf_;
  std::vector<Line> lines_;
  std::size_t begin_ = 0;
};

/// Render one declared property list, mirroring find_property's
/// first-match-wins resolution: a later association that repeats an earlier
/// (name, applies-to target) is unreachable and must not perturb the hash.
/// The reachable survivors are then sorted, so re-ordering *distinct*
/// associations — a pure layout edit — is invisible.
void render_properties(std::string& out, LineSet& lines,
                       const std::vector<PropertyAssociation>& props) {
  std::string& t = lines.text();
  const auto line = [&](const PropertyAssociation& pa,
                        const std::vector<std::string>* target) {
    (t += "  prop ") += pa.name;
    if (target) append_joined(t += " @ ", *target);
    const std::size_t key_end = t.size();
    t += " = ";
    render_value(t, pa.value);
    lines.end_line(key_end);
  };
  for (const PropertyAssociation& pa : props) {
    if (pa.applies_to.empty()) line(pa, nullptr);
    for (const auto& target : pa.applies_to) line(pa, &target);
  }
  lines.dedup_keys();
  lines.flush_sorted(out);
}

void render_component(std::string& out, LineSet& lines,
                      const ComponentInstance& inst) {
  ((out += "component ") += to_string(inst.category)) += " \"";
  (out += inst.path) += "\"\n";
  if (inst.type) {
    std::string& t = lines.text();
    for (const Feature& f : inst.type->features) {
      t += "  feature ";
      append_lower(t, f.name);
      ((t += ' ') += direction_tag(f.direction)) += ' ';
      t += feature_kind_tag(f.kind);
      if (f.provides) t += " provides";
      if (!f.classifier.empty()) append_lower(t += ' ', f.classifier);
      lines.end_line();
    }
    lines.flush_sorted(out);
    render_properties(out, lines, inst.type->properties);
  }
  if (inst.impl) render_properties(out, lines, inst.impl->properties);
}

}  // namespace

std::string Fingerprint::hex() const {
  std::string out;
  util::append_hex(out, hi);
  util::append_hex(out, lo);
  return out;
}

std::string canonical_instance_text(const InstanceModel& model) {
  std::string out = "aadlsched-instance-v1\n";
  LineSet lines;

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
  for (const ComponentInstance* inst : all)
    render_component(out, lines, *inst);

  // Semantic connections, sorted; the syntactic `via` chain is a naming
  // artifact and deliberately excluded.
  std::string& t = lines.text();
  for (const SemanticConnection& c : model.connections) {
    ((t += "connection ") += feature_kind_tag(c.kind)) += " \"";
    ((t += path_or_unknown(c.source)) += '.') += c.source_port;
    t += "\" -> \"";
    ((t += path_or_unknown(c.destination)) += '.') +=
        c.destination_port;
    t += '"';
    if (c.bus) ((t += " bus \"") += c.bus->path) += '"';
    lines.end_line();
  }
  lines.flush_sorted(out);

  // Shared-resource accesses (data access connections are not semantic
  // connections, but the static-analysis tier reads them, so they must
  // invalidate cached results). Models without access connections emit
  // nothing here and keep their pre-existing fingerprints.
  const SharedResourceModel srm = extract_shared_resources(model);
  for (const SharedResourceInfo& res : srm.resources) {
    for (const ResourceAccess& a : res.accesses) {
      ((t += "access \"") += path_or_unknown(a.thread)) += '.';
      ((t += a.feature) += "\" -> \"") += res.data->path;
      ((t += "\" protocol ") += to_string(res.protocol)) += " section ";
      append_int(t, a.section_ns);
      lines.end_line();
    }
  }
  for (const std::string& u : srm.unresolved) {
    ((t += "access-unresolved \"") += u) += '"';
    lines.end_line();
  }
  lines.flush_sorted(out);

  // Processor bindings, sorted by thread path.
  for (const auto& [thread, proc] : model.bindings) {
    ((t += "binding \"") += thread->path) += "\" -> \"";
    (t += proc->path) += '"';
    lines.end_line();
  }
  lines.flush_sorted(out);

  return out;
}

Fingerprint instance_fingerprint(const InstanceModel& model) {
  const util::Hash128 h = util::fnv1a_128(canonical_instance_text(model));
  return Fingerprint{h.hi, h.lo};
}

}  // namespace aadlsched::aadl
