// Property precedence, fixed once by instantiate in each instance's
// `properties` list, checked against the gather lookup it replaced. That
// lookup is kept below as the oracle: for every instance and every property
// name a model declares (plus qualified and bare spellings of each), the
// indexed find_property must return the very same PropertyValue. Swept over
// the shipped models, the corpus and a 720-model fleet grid, plus hand
// fixtures for each precedence rule.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"

namespace {

using namespace aadlsched;
using aadl::ComponentInstance;
using aadl::PropertyAssociation;
using aadl::PropertyValue;

/// The lookup before the index: walk every ancestor's associations and
/// resolve each matching `applies to` path again, then the instance's own
/// implementation, then its type.
const PropertyValue* gather_find_property(const ComponentInstance& inst,
                                          std::string_view lowered_name) {
  const auto matches = [&](const PropertyAssociation& pa) {
    if (pa.name == lowered_name) return true;
    const auto pos = pa.name.rfind("::");
    return pos != std::string::npos && pa.name.substr(pos + 2) == lowered_name;
  };
  for (const ComponentInstance* scope = inst.parent; scope;
       scope = scope->parent) {
    if (!scope->impl) continue;
    for (const PropertyAssociation& pa : scope->impl->properties) {
      if (!matches(pa)) continue;
      for (const auto& target : pa.applies_to)
        if (scope->resolve(target) == &inst) return &pa.value;
    }
  }
  if (inst.impl) {
    for (const PropertyAssociation& pa : inst.impl->properties)
      if (matches(pa) && pa.applies_to.empty()) return &pa.value;
  }
  if (inst.type) {
    for (const PropertyAssociation& pa : inst.type->properties)
      if (matches(pa) && pa.applies_to.empty()) return &pa.value;
  }
  return nullptr;
}

/// Every property name `model` declares, the part after its last "::",
/// and a "::"-qualified spelling of that part.
std::set<std::string> probe_names(const aadl::Model& model) {
  std::set<std::string> names;
  const auto add = [&](const std::vector<PropertyAssociation>& props) {
    for (const PropertyAssociation& pa : props) {
      const auto pos = pa.name.rfind("::");
      const std::string last =
          pos == std::string::npos ? pa.name : pa.name.substr(pos + 2);
      names.insert(pa.name);
      names.insert(last);
      names.insert("timing_properties::" + last);
    }
  };
  for (const auto& [_, pkg] : model.packages) {
    for (const auto& [_, type] : pkg.types) add(type.properties);
    for (const auto& [_, impl] : pkg.impls) add(impl.properties);
  }
  return names;
}

/// Compares both lookups for every instance under `inst`; returns the
/// number of lookups compared.
std::size_t expect_agreement(const aadl::InstanceModel& im,
                             const ComponentInstance& inst,
                             const std::set<std::string>& names,
                             const std::string& where) {
  std::size_t compared = 0;
  for (const std::string& name : names) {
    EXPECT_EQ(aadl::find_property(im, inst, name),
              gather_find_property(inst, name))
        << where << ": instance '" << inst.path << "', property " << name;
    ++compared;
  }
  for (const auto& c : inst.children)
    compared += expect_agreement(im, *c, names, where);
  return compared;
}

/// Instantiates every implementation `model` declares as a root and
/// compares the lookups on each instance tree.
std::size_t expect_agreement(const aadl::Model& model,
                             const std::string& where) {
  const std::set<std::string> names = probe_names(model);
  std::size_t compared = 0;
  for (const auto& [_, pkg] : model.packages) {
    for (const auto& [impl_name, impl] : pkg.impls) {
      util::DiagnosticEngine diags(where);
      const auto im = aadl::instantiate(model, impl_name, diags);
      if (!im) continue;
      compared += expect_agreement(*im, *im->root, names,
                                   where + " rooted at " + impl_name);
    }
  }
  return compared;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t expect_agreement_in_dir(const std::filesystem::path& dir) {
  std::size_t compared = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".aadl") continue;
    aadl::Model model;
    util::DiagnosticEngine diags(entry.path().string());
    aadl::parse_aadl(model, slurp(entry.path()), diags);  // bad ones too
    compared += expect_agreement(model, entry.path().filename().string());
  }
  return compared;
}

TEST(PropertyIndex, AgreesWithGatherOnShippedModels) {
  EXPECT_GT(expect_agreement_in_dir(AADLSCHED_MODELS_DIR), 1000u);
}

TEST(PropertyIndex, AgreesWithGatherOnCorpus) {
  const std::filesystem::path bad = AADLSCHED_CORPUS_DIR;
  EXPECT_GT(expect_agreement_in_dir(bad) +
                expect_agreement_in_dir(bad.parent_path()),
            100u);
}

TEST(PropertyIndex, AgreesWithGatherOnFleetGrid) {
  // The fleet grid perfbench's sweep_fleet decides: 72 cells x 10 seeds.
  exp::ExperimentSpec spec;
  spec.policies = {"rm", "dm", "edf"};
  spec.utilizations = {0.5, 0.7, 0.9, 1.1};
  spec.task_counts = {3, 5, 8};
  spec.deadline_fractions = {1.0, 0.8};
  spec.seed_begin = 11;
  spec.seed_count = 10;
  const std::vector<exp::Cell> cells = exp::expand_grid(spec);
  std::size_t models = 0;
  for (std::size_t ci = 0; ci < cells.size(); ++ci) {
    for (std::uint64_t k = 0; k < spec.seed_count; ++k) {
      std::string error;
      const auto text = exp::render_model(spec, cells[ci], ci,
                                          spec.seed_begin + k, error);
      ASSERT_TRUE(text) << error;
      aadl::Model model;
      util::DiagnosticEngine diags("<fleet>");
      ASSERT_TRUE(aadl::parse_aadl(model, *text, diags)) << diags.render_all();
      expect_agreement(model, "fleet cell " + std::to_string(ci));
      ++models;
    }
  }
  EXPECT_EQ(models, 720u);
}

// --- hand fixtures -----------------------------------------------------------

constexpr std::string_view kNested = R"(
package P
public
  thread T
  properties
    Dispatch_Protocol => Sporadic;
    Priority => 1;
    Period => 100 ms;
  end T;

  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 50 ms;
  end T.impl;

  process Proc
  end Proc;

  process implementation Proc.impl
  subcomponents
    t : thread T.impl;
  properties
    Deadline => 30 ms applies to t;
    Compute_Execution_Time => 1 ms .. 1 ms applies to t;
    Compute_Execution_Time => 2 ms .. 2 ms applies to t;
    Timing_Properties::Dispatch_Offset => 3 ms applies to t;
  end Proc.impl;

  system Root
  end Root;

  system implementation Root.impl
  subcomponents
    p : process Proc.impl;
  properties
    Deadline => 20 ms applies to p.t;
    Priority => 7 applies to p.t;
    Period => 60 ms applies to p.t;
    Period => 10 ms applies to p.nothing;
  end Root.impl;
end P;
)";

/// The parsed kNested and the associations the fixtures name.
struct Nested {
  aadl::Model model;
  const aadl::ComponentType* t_type = nullptr;
  const aadl::ComponentImpl* t_impl = nullptr;
  const aadl::ComponentImpl* proc_impl = nullptr;
  aadl::ComponentImpl* root_impl = nullptr;

  Nested() {
    util::DiagnosticEngine diags("<nested>");
    EXPECT_TRUE(aadl::parse_aadl(model, kNested, diags)) << diags.render_all();
    aadl::Package& pkg = model.packages.at("p");
    t_type = &pkg.types.at("t");
    t_impl = &pkg.impls.at("t.impl");
    proc_impl = &pkg.impls.at("proc.impl");
    root_impl = &pkg.impls.at("root.impl");
  }

  /// The PropertyValue of association `index` in `props`.
  static const PropertyValue* at(const std::vector<PropertyAssociation>& props,
                                 std::size_t index) {
    return &props.at(index).value;
  }
};

struct Instantiated {
  std::unique_ptr<aadl::InstanceModel> im;
  const ComponentInstance* t = nullptr;

  explicit Instantiated(const aadl::Model& model) {
    util::DiagnosticEngine diags("<nested>");
    im = aadl::instantiate(model, "Root.impl", diags);
    EXPECT_NE(im, nullptr) << diags.render_all();
    if (im) t = im->find("p.t");
    EXPECT_NE(t, nullptr);
  }
  const PropertyValue* find(std::string_view name) const {
    return aadl::find_property(*im, *t, name);
  }
};

TEST(PropertyIndex, NearerAncestorBeatsFartherOne) {
  const Nested n;
  const Instantiated i(n.model);
  // Proc.impl's 30 ms, not Root.impl's 20 ms.
  EXPECT_EQ(i.find("deadline"), Nested::at(n.proc_impl->properties, 0));
}

TEST(PropertyIndex, FirstDeclarationInOneScopeWins) {
  const Nested n;
  const Instantiated i(n.model);
  EXPECT_EQ(i.find("compute_execution_time"),
            Nested::at(n.proc_impl->properties, 1));
}

TEST(PropertyIndex, ContainedBeatsImplementationWhichBeatsType) {
  const Nested n;
  const Instantiated i(n.model);
  EXPECT_EQ(i.find("period"), Nested::at(n.root_impl->properties, 2));
  EXPECT_EQ(i.find("priority"), Nested::at(n.root_impl->properties, 1));
  EXPECT_EQ(i.find("dispatch_protocol"), Nested::at(n.t_impl->properties, 0));
  // The type's own Period is reachable from an instance with no override.
  const auto* own_period = Nested::at(n.t_type->properties, 2);
  EXPECT_EQ(i.t->properties.back().value, own_period);
}

TEST(PropertyIndex, QualifiedLookupMatchesOnlyTheExactName) {
  const Nested n;
  const Instantiated i(n.model);
  const PropertyValue* offset = Nested::at(n.proc_impl->properties, 3);
  EXPECT_EQ(i.find("timing_properties::dispatch_offset"), offset);
  EXPECT_EQ(i.find("dispatch_offset"), offset);
  EXPECT_EQ(i.find("other_set::dispatch_offset"), nullptr);
  // Declared bare, so no qualified spelling names it.
  EXPECT_EQ(i.find("timing_properties::deadline"), nullptr);
}

TEST(PropertyIndex, TargetResolvingToNothingAppliesNowhere) {
  const Nested n;
  const Instantiated i(n.model);
  const PropertyValue* stray = Nested::at(n.root_impl->properties, 3);
  std::vector<const ComponentInstance*> todo = {i.im->root.get()};
  while (!todo.empty()) {
    const ComponentInstance* inst = todo.back();
    todo.pop_back();
    for (const aadl::AppliedProperty& p : inst->properties)
      EXPECT_NE(p.value, stray) << inst->path;
    for (const auto& c : inst->children) todo.push_back(c.get());
  }
}

TEST(PropertyIndex, PathNamingTheDeclaringScopeStaysUnseen) {
  // The parser never yields an empty `applies to` path, but the AST admits
  // one, and it resolves to the declaring scope itself: the gather lookup
  // started at the parent and never saw it, and neither may the index.
  Nested n;
  PropertyAssociation self;
  self.name = "deadline";
  self.value = n.root_impl->properties.at(0).value;
  self.applies_to = {{}};
  n.root_impl->properties.insert(n.root_impl->properties.begin(), self);
  const Instantiated i(n.model);
  EXPECT_EQ(aadl::find_property(*i.im, *i.im->root, "deadline"), nullptr);
  EXPECT_EQ(i.find("deadline"), Nested::at(n.proc_impl->properties, 0));
  EXPECT_EQ(expect_agreement(*i.im, *i.im->root, probe_names(n.model),
                             "self-targeted"),
            3 * probe_names(n.model).size());
}

TEST(PropertyIndex, HandFixtureAgreesWithGather) {
  const Nested n;
  EXPECT_GT(expect_agreement(n.model, "nested"), 0u);
}

}  // namespace
