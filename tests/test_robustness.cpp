// Malformed-input robustness: every file in tests/corpus/bad/ is hostile in
// a different way (truncated, cyclic extends, garbage tokens, absurd
// property values, unbalanced ends, empty, non-ASCII noise). The frontend
// must answer each with diagnostics and a structured Error outcome — never
// a crash, hang, or silent nonsense verdict. Run under ASan/UBSan via
// `ctest -L asan` to catch the memory bugs a green exit code would hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "aadl/parser.hpp"
#include "aadl/properties.hpp"
#include "core/analyzer.hpp"
#include "util/diagnostics.hpp"

using namespace aadlsched;
namespace fs = std::filesystem;

namespace {

std::vector<fs::path> corpus_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(AADLSCHED_CORPUS_DIR)) {
    if (entry.path().extension() == ".aadl") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 6u) << "corpus went missing from "
                              << AADLSCHED_CORPUS_DIR;
  return files;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  EXPECT_TRUE(in) << p;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Robustness, ParserNeverCrashesAndFlagsErrors) {
  for (const fs::path& p : corpus_files()) {
    util::DiagnosticEngine diags(p.filename().string());
    aadl::Model model;
    const bool parsed = aadl::parse_aadl(model, read_file(p), diags);
    // Contract: `false` return <=> at least one error diagnostic. Either
    // way the call must come back (no hang on cyclic_extends.aadl, no
    // crash on garbage_tokens.aadl).
    EXPECT_EQ(!parsed, diags.has_errors()) << p.filename();
  }
}

TEST(Robustness, AnalyzerReportsErrorNeverCrashes) {
  // No corpus file defines `Broken.impl`, so even the files that parse
  // reach the instantiation error path: every run must produce a
  // structured Error with a rendered diagnostic, not a crash.
  for (const fs::path& p : corpus_files()) {
    const core::AnalysisResult r =
        core::analyze_source(read_file(p), "Broken.impl");
    EXPECT_EQ(r.outcome, core::Outcome::Error) << p.filename();
    EXPECT_FALSE(r.diagnostics.empty()) << p.filename();
  }
}

TEST(Robustness, AbsurdPropertyValuesAreCaughtNotAnalyzed) {
  // absurd_properties.aadl parses; the negative period / inverted range /
  // overflow-scale numbers must surface as diagnostics or lint findings
  // before any state space is built on nonsense timing.
  const fs::path p = fs::path(AADLSCHED_CORPUS_DIR) / "absurd_properties.aadl";
  const auto r = core::analyze_source(read_file(p), "Root.impl");
  EXPECT_EQ(r.outcome, core::Outcome::Error);
  EXPECT_FALSE(r.diagnostics.empty() &&
               (!r.lint_report || r.lint_report->findings.empty()))
      << "nonsense timing values produced neither diagnostics nor findings";
}

TEST(Robustness, TimeToNsReportsOverflowInsteadOfWrapping) {
  // absurd_properties.aadl's 99999999999999999999999999 ms saturates to
  // INT64_MAX in the lexer; scaling it to ns must not overflow.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  for (const aadl::IntWithUnit& v :
       {aadl::IntWithUnit{kMax, "ms"}, aadl::IntWithUnit{kMin, "us"},
        aadl::IntWithUnit{kMax / 1000, "hr"}}) {
    util::DiagnosticEngine diags("time");
    EXPECT_FALSE(aadl::time_to_ns(v, diags, {}).has_value()) << v.unit;
    EXPECT_NE(diags.render_all().find("out of range"), std::string::npos)
        << diags.render_all();
  }
  util::DiagnosticEngine diags("time");
  EXPECT_EQ(aadl::time_to_ns({kMax, "ns"}, diags, {}), kMax);
  EXPECT_EQ(aadl::time_to_ns({kMax / 1000, "us"}, diags, {}),
            kMax / 1000 * 1000);
  EXPECT_FALSE(diags.has_errors());
}

TEST(Robustness, CyclicExtendsTerminates) {
  // `extends` cycles must not send instantiation into infinite recursion;
  // gtest's default timeout would not save us from a hang, so just reaching
  // the assertion below is the point.
  const fs::path p = fs::path(AADLSCHED_CORPUS_DIR) / "cyclic_extends.aadl";
  const auto r = core::analyze_source(read_file(p), "Root.impl");
  SUCCEED() << "terminated with outcome " << core::to_string(r.outcome);
}

}  // namespace
