#include "acsr/label.hpp"

#include <algorithm>
#include <sstream>

#include "acsr/context.hpp"

namespace aadlsched::acsr {

std::string render_action(const Context& ctx, ActionId action) {
  // Sort by resource *name* so renderings are independent of interning
  // order (resource ids are assigned in first-seen order).
  const std::span<const ResourceUse> interned = ctx.actions().uses(action);
  std::vector<ResourceUse> uses(interned.begin(), interned.end());
  std::sort(uses.begin(), uses.end(),
            [&](const ResourceUse& a, const ResourceUse& b) {
              return ctx.resource_name(a.resource) <
                     ctx.resource_name(b.resource);
            });
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < uses.size(); ++i) {
    if (i != 0) os << ',';
    os << '(' << ctx.resource_name(uses[i].resource) << ','
       << uses[i].priority << ')';
  }
  os << '}';
  return os.str();
}

std::string render_label(const Context& ctx, const Label& label) {
  std::ostringstream os;
  switch (label.kind) {
    case Label::Kind::Action: {
      os << render_action(ctx, label.action);
      break;
    }
    case Label::Kind::Event:
      os << ctx.event_name(label.event) << (label.send ? '!' : '?') << ':'
         << label.priority;
      break;
    case Label::Kind::Tau:
      os << "tau@" << ctx.event_name(label.event) << ':' << label.priority;
      break;
  }
  return os.str();
}

}  // namespace aadlsched::acsr
