#include "aadl/ast.hpp"

#include "util/string_utils.hpp"

namespace aadlsched::aadl {

std::string_view to_string(Category c) {
  switch (c) {
    case Category::System: return "system";
    case Category::Process: return "process";
    case Category::ThreadGroup: return "thread group";
    case Category::Thread: return "thread";
    case Category::Processor: return "processor";
    case Category::Bus: return "bus";
    case Category::Device: return "device";
    case Category::Data: return "data";
    case Category::Memory: return "memory";
    case Category::Subprogram: return "subprogram";
  }
  return "unknown";
}

const Feature* ComponentType::find_feature(
    std::string_view lowered_name) const {
  for (const Feature& f : features)
    if (util::to_lower(f.name) == lowered_name) return &f;
  return nullptr;
}

const ComponentType* Model::find_type(std::string_view name) const {
  const std::string lowered_s = util::to_lower(name);
  const std::string_view lowered = lowered_s;
  // Qualified name "pkg::name" or bare name searched across packages.
  const auto pos = lowered.rfind("::");
  if (pos != std::string_view::npos) {
    const auto pkg = packages.find(std::string(lowered.substr(0, pos)));
    if (pkg == packages.end()) return nullptr;
    const auto it = pkg->second.types.find(std::string(lowered.substr(pos + 2)));
    return it == pkg->second.types.end() ? nullptr : &it->second;
  }
  for (const auto& [_, pkg] : packages) {
    const auto it = pkg.types.find(std::string(lowered));
    if (it != pkg.types.end()) return &it->second;
  }
  return nullptr;
}

const ComponentImpl* Model::find_impl(std::string_view name) const {
  const std::string lowered_s = util::to_lower(name);
  const std::string_view lowered = lowered_s;
  const auto pos = lowered.rfind("::");
  if (pos != std::string_view::npos) {
    const auto pkg = packages.find(std::string(lowered.substr(0, pos)));
    if (pkg == packages.end()) return nullptr;
    const auto it = pkg->second.impls.find(std::string(lowered.substr(pos + 2)));
    return it == pkg->second.impls.end() ? nullptr : &it->second;
  }
  for (const auto& [_, pkg] : packages) {
    const auto it = pkg.impls.find(std::string(lowered));
    if (it != pkg.impls.end()) return &it->second;
  }
  return nullptr;
}

}  // namespace aadlsched::aadl
