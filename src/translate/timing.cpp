#include "translate/timing.hpp"

#include <algorithm>
#include <numeric>
#include <variant>

#include "util/numeric.hpp"

namespace aadlsched::translate {

QuantizedTiming quantize(const aadl::ThreadProperties& props,
                         std::int64_t offset_ns, std::int64_t quantum_ns) {
  QuantizedTiming out;
  out.cmax = util::ceil_div(props.compute_max_ns, quantum_ns);
  out.cmin = std::min(props.compute_min_ns / quantum_ns, out.cmax);
  out.period = props.period_ns / quantum_ns;
  out.deadline = props.deadline_ns / quantum_ns;
  out.offset = std::clamp<std::int64_t>(offset_ns / quantum_ns, 0,
                                        std::max<std::int64_t>(out.period, 0));
  return out;
}

std::optional<std::int64_t> dispatch_offset_ns(
    const aadl::InstanceModel& model, const aadl::ComponentInstance& thread,
    util::DiagnosticEngine& diags) {
  const auto* pv = aadl::find_property(model, thread, "dispatch_offset");
  const auto* iu = pv ? std::get_if<aadl::IntWithUnit>(&pv->data) : nullptr;
  if (!iu) return std::nullopt;
  return aadl::time_to_ns(*iu, diags, {});
}

PriorityAssignment assign_priorities(aadl::SchedulingProtocol protocol,
                                     const std::vector<PriorityInput>& group) {
  using aadl::SchedulingProtocol;
  PriorityAssignment out;
  out.priorities.assign(group.size(), 0);
  const auto rank = [&](std::int64_t PriorityInput::*field) {
    const auto key = [&](std::size_t i) {
      const std::int64_t v = group[i].*field;
      return v > 0 ? v : std::int64_t{1} << 40;
    };
    std::vector<std::size_t> order(group.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return key(a) < key(b);
                     });
    int prio = static_cast<int>(group.size()) + 1;
    for (std::size_t i : order) out.priorities[i] = prio--;
    for (std::size_t i = 0; i < group.size(); ++i)
      if (group[i].dispatch == aadl::DispatchProtocol::Background)
        out.priorities[i] = 1;
  };
  switch (protocol) {
    case SchedulingProtocol::RateMonotonic:
      rank(&PriorityInput::period);
      break;
    case SchedulingProtocol::DeadlineMonotonic:
      rank(&PriorityInput::deadline);
      break;
    case SchedulingProtocol::HighestPriorityFirst:
      for (std::size_t i = 0; i < group.size(); ++i) {
        if (group[i].declared == 0 &&
            group[i].dispatch != aadl::DispatchProtocol::Background)
          out.missing_priority.push_back(i);
        out.priorities[i] = group[i].declared + 2;
      }
      break;
    case SchedulingProtocol::Edf:
    case SchedulingProtocol::Llf:
      break;
  }
  return out;
}

}  // namespace aadlsched::translate
