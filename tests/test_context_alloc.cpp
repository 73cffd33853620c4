// The fixed cost of an empty acsr::Context, pinned as a byte count rather
// than a time, and a request that lint decides, which must not pay it: a
// count does not drift with the host. A counting global operator new (this
// binary's own, so no other suite is affected) records what each
// allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "acsr/context.hpp"
#include "core/analyzer.hpp"
#include "exp/runner.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

namespace {

// Every replaced operator new form calls this, so gcc sees malloc behind
// them and pairs it with the free in operator delete; one form forwarding
// to the other reads as a mismatched new/free (-Wmismatched-new-delete).
void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_malloc_or_null(std::size_t n) noexcept {
  try {
    return counted_malloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// The nothrow forms too: left to the runtime, they would allocate with
// its own operator new and be freed here (ASan's alloc-dealloc-mismatch).
void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc_or_null(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc_or_null(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

std::size_t bytes_allocated_by(auto&& fn) {
  g_bytes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_bytes;
}

TEST(ContextFixedCost, EmptyContextAllocatesAtMost64KiB) {
  const std::size_t bytes =
      bytes_allocated_by([] { aadlsched::acsr::Context ctx; });
  EXPECT_LE(bytes, std::size_t{64} * 1024)
      << "an empty Context allocated " << bytes << " bytes";
}

TEST(ContextFixedCost, CounterSeesAllocations) {
  // Guards the test above against a counter that never fires. A direct
  // operator new call, unlike a new-expression, is never elided.
  const std::size_t bytes = bytes_allocated_by([] {
    ::operator delete(::operator new(4000));
  });
  EXPECT_GE(bytes, 4000u);
}

/// Front end + analyze_instance on one model; returns the bytes the
/// analysis allocated.
std::size_t analysis_bytes(const std::string& text,
                           const aadlsched::core::AnalyzerOptions& opts,
                           aadlsched::core::AnalysisResult& result) {
  using namespace aadlsched;
  util::DiagnosticEngine diags("<model>");
  const std::string_view source = text;
  const auto loaded = core::load_model({&source, 1}, "S.impl", diags);
  EXPECT_NE(loaded, nullptr) << diags.render_all();
  if (!loaded) return 0;
  return bytes_allocated_by(
      [&] { result = core::analyze_instance(*loaded->instance, opts); });
}

/// Two periodic rate-monotonic threads on one processor. `bound` false
/// leaves `b` unbound (lint's AL001 error gates the run); `event_link`
/// adds an event connection a -> b, which the periodic `b` ignores but
/// which takes the model outside lint's decidable fragment.
std::string two_periodic_threads(bool bound, bool event_link) {
  return std::string(R"(
package P
public
  processor Cpu
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end Cpu;
  thread A
  features
    go : out event port;
  end A;
  thread implementation A.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 4 ms;
    Compute_Execution_Time => 1 ms .. 1 ms;
    Deadline => 4 ms;
  end A.impl;
  thread B
  features
    go : in event port;
  end B;
  thread implementation B.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 6 ms;
    Compute_Execution_Time => 1 ms .. 2 ms;
    Deadline => 6 ms;
  end B.impl;
  system S
  end S;
  system implementation S.impl
  subcomponents
    a : thread A.impl;
    b : thread B.impl;
    cpu : processor Cpu;
)") + (event_link ? "  connections\n    link : port a.go -> b.go;\n" : "") +
         R"(  properties
    Actual_Processor_Binding => reference (cpu) applies to a;
)" + (bound ? "    Actual_Processor_Binding => reference (cpu) applies to b;\n"
            : "") +
         R"(  end S.impl;
end P;
)";
}

TEST(ContextFixedCost, DecidedRequestBuildsNoContext) {
  // A fleet model (rm, U = 0.7, three implicit-deadline tasks) that lint
  // decides: validation, lint and the verdict together must allocate less
  // than an empty Context, so none was built.
  using namespace aadlsched;
  const exp::ExperimentSpec spec;
  const exp::Cell cell = exp::expand_grid(spec).front();
  std::string error;
  const auto text =
      exp::render_model(spec, cell, 0, spec.seed_begin, error);
  ASSERT_TRUE(text) << error;
  util::DiagnosticEngine diags("<fleet>");
  const std::string_view source = *text;
  const auto loaded = core::load_model({&source, 1}, "Root.impl", diags);
  ASSERT_NE(loaded, nullptr) << diags.render_all();
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = cell.quantum_ms * 1'000'000;
  opts.run_lint = true;

  core::AnalysisResult result;
  const std::size_t decided = bytes_allocated_by(
      [&] { result = core::analyze_instance(*loaded->instance, opts); });
  ASSERT_FALSE(result.decided_by.empty()) << result.summary();
  const std::size_t empty = bytes_allocated_by([] { acsr::Context ctx; });
  EXPECT_LT(decided, empty) << "a decided request allocated " << decided
                            << " bytes; an empty Context takes " << empty;

  // A request that lint gates builds none either.
  const std::size_t gated =
      analysis_bytes(two_periodic_threads(false, false), opts, result);
  ASSERT_EQ(result.outcome, core::Outcome::Error) << result.diagnostics;
  ASSERT_GT(result.lint_report->errors(), 0u);
  EXPECT_LT(gated, empty) << "a gated request allocated " << gated;
}

TEST(ContextFixedCost, SymbolicRequestBuildsNoContext) {
  // Outside lint's fragment (the event connection), inside the symbolic
  // engine's: linting the request may cost lint's own bytes, never a
  // Context's.
  using namespace aadlsched;
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 1'000'000;
  opts.engine = core::Engine::Symbolic;
  core::AnalysisResult result;
  const std::string model = two_periodic_threads(true, true);
  const std::size_t unlinted = analysis_bytes(model, opts, result);
  ASSERT_EQ(result.outcome, core::Outcome::Schedulable) << result.diagnostics;
  opts.run_lint = true;
  const std::size_t linted = analysis_bytes(model, opts, result);
  ASSERT_EQ(result.outcome, core::Outcome::Schedulable) << result.diagnostics;
  ASSERT_EQ(result.engine, core::Engine::Symbolic);
  ASSERT_TRUE(result.decided_by.empty());
  const std::size_t empty = bytes_allocated_by([] { acsr::Context ctx; });
  EXPECT_LT(linted, unlinted + empty)
      << "linting a symbolic request allocated " << linted - unlinted
      << " bytes; an empty Context takes " << empty;
}

}  // namespace
