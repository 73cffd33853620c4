// Heap allocations per explored state, pinned as a count rather than a time:
// the successor generator is meant to run out of reused scratch and
// append-only tables, and a count does not drift with the host. A counting
// global operator new (this binary's own, so no other suite is affected)
// records what one analyze_source call allocates, front end, lint,
// translation and teardown included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "core/analyzer.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

namespace {

// Every replaced operator new form calls this, so gcc sees malloc behind
// them and pairs it with the free in operator delete; one form forwarding
// to the other reads as a mismatched new/free (-Wmismatched-new-delete).
void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

using namespace aadlsched;

std::string read_model(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t allocations_during(auto&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

// Instantiation runs on scratch stacks the Context owns, a Call shares its
// unfolding's fan and every intern probes once, so a cold exploration
// allocates when a table or buffer grows, not per term or per fan.
TEST(ExploreAllocations, CruiseAt2msStaysUnderPoint4PerState) {
  const std::string src = read_model("cruise_control.aadl");
  ASSERT_FALSE(src.empty());
  core::AnalyzerOptions opts;
  opts.translation.quantum_ns = 2'000'000;
  core::AnalysisResult r;
  const std::size_t allocs = allocations_during([&] {
    r = core::analyze_source(src, "CruiseControlSystem.impl", opts);
  });
  ASSERT_EQ(r.outcome, core::Outcome::Schedulable) << r.diagnostics;
  ASSERT_EQ(r.states, 6113u);  // explored, not decided by lint
  const double per_state =
      static_cast<double>(allocs) / static_cast<double>(r.states);
  RecordProperty("allocations_per_state", std::to_string(per_state));
  std::printf("cruise @ 2 ms: %zu allocations for %llu states = %.2f/state\n",
              allocs, static_cast<unsigned long long>(r.states), per_state);
  EXPECT_LE(per_state, 0.4) << allocs << " allocations for " << r.states
                            << " states";
}

TEST(ExploreAllocations, CounterSeesAllocations) {
  // Guards the test above against a counter that never fires. A direct
  // operator new call, unlike a new-expression, is never elided.
  const std::size_t n = allocations_during([] {
    ::operator delete(::operator new(64));
  });
  EXPECT_EQ(n, 1u);
}

}  // namespace
