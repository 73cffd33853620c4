// aadl::instance_fingerprint — the cache key of the analysis service
// (DESIGN.md §11). Two sources that instantiate to the same system must
// hash identically, whatever the author did to the text: the fuzz tests
// permute declaration order, inject comments and blank lines over seeded
// randomness and demand a stable fingerprint; the semantic tests flip one
// timing value and demand a different one. A collision here silently
// serves the wrong verdict, so this is the test with the fuzz budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "aadl/fingerprint.hpp"
#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "exp/runner.hpp"

namespace {

using namespace aadlsched;

std::string slurp(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

aadl::Fingerprint fingerprint_of(const std::string& text,
                                 const std::string& root) {
  util::DiagnosticEngine diags("fp.aadl");
  aadl::Model model;
  EXPECT_TRUE(aadl::parse_aadl(model, text, diags)) << diags.render_all();
  auto inst = aadl::instantiate(model, root, diags);
  EXPECT_TRUE(inst && !diags.has_errors()) << diags.render_all();
  return aadl::instance_fingerprint(*inst);
}

// --- text mutators (syntactic no-ops) ----------------------------------

bool is_decl_start(const std::string& line) {
  static const char* kw[] = {"bus ",    "processor ", "device ", "memory ",
                             "thread ", "process ",   "system "};
  if (line.size() < 3 || line[0] != ' ' || line[1] != ' ' || line[2] == ' ')
    return false;
  const std::string body = line.substr(2);
  return std::any_of(std::begin(kw), std::end(kw), [&](const char* k) {
    return body.rfind(k, 0) == 0;
  });
}

/// Split the package body into top-level declaration blocks (keyword line
/// through its matching "  end X;"), shuffle them, and reassemble.
/// Declaration order carries no meaning in AADL, so the fingerprint must
/// not see this.
std::string shuffle_declarations(const std::string& text, std::uint32_t seed) {
  std::istringstream in(text);
  std::vector<std::string> prefix, suffix;
  std::vector<std::vector<std::string>> blocks;
  std::string line;
  enum { Prefix, Body, Suffix } where = Prefix;
  while (std::getline(in, line)) {
    if (where == Prefix) {
      prefix.push_back(line);
      if (line.rfind("public", 0) == 0) where = Body;
      continue;
    }
    if (where == Body && line.rfind("end ", 0) == 0) where = Suffix;
    if (where == Suffix) {
      suffix.push_back(line);
      continue;
    }
    if (is_decl_start(line)) {
      blocks.emplace_back();
      blocks.back().push_back(line);
    } else if (!blocks.empty() &&
               blocks.back().back().rfind("  end ", 0) != 0) {
      blocks.back().push_back(line);  // inside an open block
    }
    // comment/blank lines between blocks are dropped — also a no-op
  }
  std::mt19937 rng(seed);
  std::shuffle(blocks.begin(), blocks.end(), rng);
  std::ostringstream out;
  for (const auto& l : prefix) out << l << "\n";
  for (const auto& b : blocks) {
    out << "\n";
    for (const auto& l : b) out << l << "\n";
  }
  out << "\n";
  for (const auto& l : suffix) out << l << "\n";
  return out.str();
}

/// Sprinkle comments, blank lines and trailing whitespace over the text —
/// every one lexically invisible.
std::string add_noise(const std::string& text, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (rng() % 4 == 0) out << "  -- noise " << rng() % 1000 << "\n";
    out << line;
    if (rng() % 3 == 0) out << "   -- trailing note";
    out << "\n";
    if (rng() % 5 == 0) out << "\n";
  }
  return out.str();
}

struct ExampleModel {
  const char* file;
  const char* root;
};

constexpr ExampleModel kModels[] = {
    {"cruise_control.aadl", "CruiseControlSystem.impl"},
    {"avionics.aadl", "Avionics.impl"},
    {"storm.aadl", "Storm.impl"},
};

// --- tests --------------------------------------------------------------

TEST(Fingerprint, StableAcrossRuns) {
  for (const ExampleModel& m : kModels) {
    const std::string text = slurp(m.file);
    const auto a = fingerprint_of(text, m.root);
    const auto b = fingerprint_of(text, m.root);
    EXPECT_EQ(a.hex(), b.hex()) << m.file;
    EXPECT_EQ(a.hex().size(), 32u);
  }
}

TEST(Fingerprint, DistinctModelsDistinctFingerprints) {
  std::vector<std::string> seen;
  for (const ExampleModel& m : kModels)
    seen.push_back(fingerprint_of(slurp(m.file), m.root).hex());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Fingerprint, InvariantUnderDeclarationShuffle) {
  for (const ExampleModel& m : kModels) {
    const std::string text = slurp(m.file);
    const std::string base = fingerprint_of(text, m.root).hex();
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      const std::string shuffled = shuffle_declarations(text, seed);
      EXPECT_EQ(fingerprint_of(shuffled, m.root).hex(), base)
          << m.file << " seed " << seed;
    }
  }
}

TEST(Fingerprint, InvariantUnderCommentAndWhitespaceNoise) {
  for (const ExampleModel& m : kModels) {
    const std::string text = slurp(m.file);
    const std::string base = fingerprint_of(text, m.root).hex();
    for (std::uint32_t seed = 1; seed <= 8; ++seed) {
      EXPECT_EQ(fingerprint_of(add_noise(text, seed), m.root).hex(), base)
          << m.file << " seed " << seed;
    }
  }
}

TEST(Fingerprint, InvariantUnderCombinedMutation) {
  for (const ExampleModel& m : kModels) {
    const std::string text = slurp(m.file);
    const std::string base = fingerprint_of(text, m.root).hex();
    for (std::uint32_t seed = 100; seed < 104; ++seed) {
      const std::string mutated =
          add_noise(shuffle_declarations(text, seed), seed);
      EXPECT_EQ(fingerprint_of(mutated, m.root).hex(), base)
          << m.file << " seed " << seed;
    }
  }
}

/// One replaced substring with real timing impact must move the hash.
void expect_changed(const std::string& text, const std::string& root,
                    const std::string& from, const std::string& to) {
  const std::string base = fingerprint_of(text, root).hex();
  std::string edited = text;
  const auto pos = edited.find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  edited.replace(pos, from.size(), to);
  EXPECT_NE(fingerprint_of(edited, root).hex(), base)
      << "'" << from << "' -> '" << to << "' was invisible";
}

TEST(Fingerprint, SemanticEditsChangeFingerprint) {
  const std::string text = slurp("cruise_control.aadl");
  const std::string root = "CruiseControlSystem.impl";
  expect_changed(text, root, "Period => 100 ms", "Period => 101 ms");
  expect_changed(text, root, "Compute_Execution_Time => 10 ms .. 20 ms",
                 "Compute_Execution_Time => 10 ms .. 25 ms");
  expect_changed(text, root, "Deadline => 50 ms", "Deadline => 45 ms");
  // Adding a subcomponent is a structural change.
  expect_changed(text, root, "cruise1 : thread Cruise1.impl;",
                 "cruise1 : thread Cruise1.impl;\n"
                 "    cruise3 : thread Cruise2.impl;");
  // Rebinding a connection off the bus changes contention.
  expect_changed(text, root,
                 "Actual_Connection_Binding => reference (vme) applies to "
                 "c_mode;",
                 "");
}

// Property names and units are lowercased once, in the parser, and the
// lookups and the fingerprint compare them as stored (ast.hpp). One model
// spelled in upper case, with a property-set qualifier and in lower case
// must resolve to one Period.
std::string spelled(const std::string& period) {
  return "package P\npublic\n"
         "  processor Cpu\n  properties\n"
         "    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;\n"
         "  end Cpu;\n"
         "  thread T\n  end T;\n"
         "  thread implementation T.impl\n  properties\n"
         "    Dispatch_Protocol => Periodic;\n"
         "    " + period + ";\n"
         "    Compute_Execution_Time => 1 ms .. 2 ms;\n"
         "  end T.impl;\n"
         "  system Root\n  end Root;\n"
         "  system implementation Root.impl\n  subcomponents\n"
         "    T0 : thread T.impl;\n    cpu : processor Cpu;\n"
         "  properties\n"
         "    Actual_Processor_Binding => reference (cpu) applies to T0;\n"
         "  end Root.impl;\nend P;\n";
}

TEST(Fingerprint, LowercaseAtParseMakesSpellingsAgree) {
  const std::string spellings[] = {"PERIOD => 10 MS",
                                   "Timing_Properties::Period => 10 ms",
                                   "period => 10 ms"};
  for (const std::string& s : spellings) {
    util::DiagnosticEngine diags("fp.aadl");
    aadl::Model model;
    ASSERT_TRUE(aadl::parse_aadl(model, spelled(s), diags)) << s;
    auto inst = aadl::instantiate(model, "Root.impl", diags);
    ASSERT_TRUE(inst && !diags.has_errors()) << s << diags.render_all();
    ASSERT_EQ(inst->threads.size(), 1u);
    const aadl::PropertyValue* pv =
        aadl::find_property(*inst, *inst->threads[0], "period");
    ASSERT_NE(pv, nullptr) << s;
    const auto* iu = std::get_if<aadl::IntWithUnit>(&pv->data);
    ASSERT_NE(iu, nullptr) << s;
    EXPECT_EQ(*iu, (aadl::IntWithUnit{10, "ms"})) << s;
    EXPECT_EQ(inst->threads[0]->path, "t0") << s;
  }
  const auto fp = [](const std::string& s) {
    return fingerprint_of(spelled(s), "Root.impl").hex();
  };
  EXPECT_EQ(fp(spellings[0]), fp(spellings[2]));
  // The canonical text keeps the stored name, qualifier included, so the
  // qualified spelling agrees with itself across case.
  EXPECT_EQ(fp("TIMING_PROPERTIES::PERIOD => 10 MS"), fp(spellings[1]));
}

TEST(Fingerprint, CanonicalTextIsVersioned) {
  util::DiagnosticEngine diags("fp.aadl");
  aadl::Model model;
  ASSERT_TRUE(aadl::parse_aadl(model, slurp("cruise_control.aadl"), diags));
  auto inst = aadl::instantiate(model, "CruiseControlSystem.impl", diags);
  ASSERT_TRUE(inst && !diags.has_errors());
  const std::string canon = aadl::canonical_instance_text(*inst);
  EXPECT_NE(canon.find("aadlsched-instance-v1"), std::string::npos);
  // Canonical text is itself deterministic.
  EXPECT_EQ(canon, aadl::canonical_instance_text(*inst));
}


// Fingerprints are cache keys and disk entry names that outlive a daemon
// version, so the canonical rendering may change how it is built but never
// a byte of what it builds: a changed value here orphans every entry of
// every shared cache directory.
TEST(Fingerprint, PinnedAcrossRenderingRewrites) {
  struct Pin {
    const char* file;
    const char* root;
    const char* hex;
  };
  const Pin shipped[] = {
      {"avionics.aadl", "Avionics.impl",
       "11973ceccc99efa148759fbee5dd185f"},
      {"cruise_control.aadl", "CruiseControlSystem.impl",
       "9f71f3468813d273a7fa63ad367d33b1"},
      {"dual_rig.aadl", "DualRig.impl",
       "386347ce65816b10919004d6fa99c95a"},
      {"quantum_ladder.aadl", "QuantumLadder.impl",
       "40e4e950aae68054b36b2a26dd732326"},
      {"slow_periodic.aadl", "SlowPeriodic.impl",
       "84d88be1cbe63481936cecafcbaf15db"},
      {"storm.aadl", "Storm.impl",
       "117935300a750f82bd76313518af6b24"},
      {"symmetric.aadl", "Symmetric.impl",
       "ebdcedacedca79b7b27f3e34100a584d"},
  };
  for (const Pin& p : shipped)
    EXPECT_EQ(fingerprint_of(slurp(p.file), p.root).hex(), p.hex) << p.file;

  // Generated experiment models: one cell per policy, with unequal
  // deadlines and two processors among them.
  struct Generated {
    exp::Cell cell;
    std::uint64_t seed;
    const char* hex;
  };
  const Generated generated[] = {
      {{"rm", 0.7, 5, 1.0, 1, "enumerative", 2}, 11,
       "61d287a252bcd45b7acf81cb98007955"},
      {{"dm", 0.9, 8, 0.8, 1, "enumerative", 1}, 12,
       "ca413560c835a623086ef84a7e5ad855"},
      {{"edf", 0.5, 3, 1.0, 1, "enumerative", 1}, 13,
       "d1640d21477b6de073a5df2c7e894de2"},
  };
  exp::ExperimentSpec spec;
  spec.name = "pins";
  for (std::size_t i = 0; i < std::size(generated); ++i) {
    const Generated& g = generated[i];
    std::string error;
    const auto text = exp::render_model(spec, g.cell, i, g.seed, error);
    ASSERT_TRUE(text.has_value()) << error;
    EXPECT_EQ(fingerprint_of(*text, "Root.impl").hex(), g.hex)
        << g.cell.policy;
  }
}

}  // namespace
