// Heap bytes of checkpoint capture and resume, pinned as counts rather
// than times: the rows of a paused exploration should exist once. A
// counting global operator new (this binary's own, so no other suite is
// affected) records the bytes allocated and the peak of the bytes live.
// Cruise control at 1 ms is capped at 40,000 of its 65,098 states.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "aadl/instance.hpp"
#include "aadl/parser.hpp"
#include "acsr/semantics.hpp"
#include "translate/translator.hpp"
#include "versa/checkpoint.hpp"
#include "versa/explorer.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated{0};
std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

// Each block carries its size in a header, so delete can keep g_live.
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

// Kept out of line: inlined into a caller, the header arithmetic reads to
// the compiler as access outside the caller's block.
[[gnu::noinline]] void* operator new(std::size_t n) {
  auto* p = static_cast<unsigned char*>(std::malloc(n + kHeader));
  if (!p) throw std::bad_alloc();
  std::memcpy(p, &n, sizeof n);
  if (g_counting.load(std::memory_order_relaxed))
    g_allocated.fetch_add(n, std::memory_order_relaxed);
  const std::size_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  if (live > g_peak.load(std::memory_order_relaxed))
    g_peak.store(live, std::memory_order_relaxed);
  return p + kHeader;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* q) noexcept {
  if (!q) return;
  auto* p = static_cast<unsigned char*>(q) - kHeader;
  std::size_t n = 0;
  std::memcpy(&n, p, sizeof n);
  g_live.fetch_sub(n, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace aadlsched;

constexpr std::uint64_t kCap = 40'000;

std::string read_model(const std::string& name) {
  std::ifstream in(std::string(AADLSCHED_MODELS_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Cruise control at 1 ms translated into `ctx`; its initial state.
acsr::TermId translate_cruise(acsr::Context& ctx) {
  static const std::string src = read_model("cruise_control.aadl");
  util::DiagnosticEngine diags("cruise_control.aadl");
  aadl::Model model;
  if (!aadl::parse_aadl(model, src, diags)) return acsr::kInvalidTerm;
  const auto inst = aadl::instantiate(model, "CruiseControlSystem.impl",
                                      diags);
  if (!inst) return acsr::kInvalidTerm;
  translate::TranslateOptions topts;
  topts.quantum_ns = 1'000'000;
  const auto tr = translate::translate(ctx, *inst, diags, topts);
  return tr ? tr->initial : acsr::kInvalidTerm;
}

/// Bytes allocated while `fn` runs, and the peak of the bytes live then
/// above those live when it started.
struct Usage {
  std::size_t allocated = 0;
  std::size_t peak_growth = 0;
};

Usage usage_of(auto&& fn) {
  const std::size_t start = g_live;
  g_peak = start;
  g_allocated = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_allocated, g_peak - start};
}

/// Explore cruise control up to the cap, capturing into `wave` when it is
/// non-null, in a fresh translation; only the exploration is measured.
Usage capped_run(versa::Wavefront* wave) {
  acsr::Context ctx;
  acsr::Semantics sem(ctx);
  const acsr::TermId init = translate_cruise(ctx);
  EXPECT_NE(init, acsr::kInvalidTerm);
  versa::ExploreOptions opts;
  opts.max_states = kCap;
  opts.capture = wave;
  versa::ExploreResult r;
  const Usage u = usage_of([&] { r = versa::explore(sem, init, opts); });
  EXPECT_EQ(r.stop, util::StopReason::MaxStates);
  EXPECT_EQ(r.states, kCap);
  return u;
}

TEST(CheckpointAllocations, CaptureAllocatesNoSecondCopyOfTheRows) {
  const Usage plain = capped_run(nullptr);
  versa::Wavefront wave;
  const Usage capturing = capped_run(&wave);
  ASSERT_FALSE(wave.empty());
  const std::size_t frontier_bytes =
      (wave.frontier.size() + wave.next_frontier.size()) *
      sizeof(std::uint32_t);
  const std::size_t extra = capturing.allocated - plain.allocated;
  std::printf("cruise @ 1 ms, capped at %llu: capture allocates %zu bytes "
              "above a plain run; the frontier lists hold %zu\n",
              static_cast<unsigned long long>(kCap), extra, frontier_bytes);
  // The frontier lists, plus an empty store's index for the moved-from
  // side; a copy of the rows would be megabytes.
  EXPECT_LE(extra, frontier_bytes + 1024);
}

TEST(CheckpointAllocations, RestoreAndResumeKeepOneRowStore) {
  std::string blob;
  {
    acsr::Context ctx;
    acsr::Semantics sem(ctx);
    const acsr::TermId init = translate_cruise(ctx);
    ASSERT_NE(init, acsr::kInvalidTerm);
    versa::Wavefront wave;
    versa::ExploreOptions opts;
    opts.max_states = kCap;
    opts.capture = &wave;
    versa::explore(sem, init, opts);
    ASSERT_FALSE(wave.empty());
    blob = versa::serialize_checkpoint(ctx, wave);
  }

  // The whole space cold, as the yardstick: its peak holds every row once,
  // plus the fan memo of every expansion and the parent vector.
  std::size_t cold_peak = 0;
  {
    acsr::Context ctx;
    acsr::Semantics sem(ctx);
    const acsr::TermId init = translate_cruise(ctx);
    versa::ExploreResult r;
    cold_peak = usage_of([&] { r = versa::explore(sem, init); }).peak_growth;
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(r.states, 65'098u);
  }

  // Restore, then resume to the end: the restored rows are the run's rows.
  std::size_t warm_peak = 0;
  {
    acsr::Context ctx;
    acsr::Semantics sem(ctx);
    const acsr::TermId init = translate_cruise(ctx);
    versa::ExploreResult r;
    warm_peak = usage_of([&] {
                  std::string error;
                  auto wave = versa::parse_checkpoint(ctx, init, blob, error);
                  ASSERT_TRUE(wave.has_value()) << error;
                  versa::ExploreOptions opts;
                  opts.resume = &*wave;
                  r = versa::explore(sem, init, opts);
                }).peak_growth;
    ASSERT_TRUE(r.complete);
    ASSERT_EQ(r.states, 65'098u);
  }
  // The values of the restored rows, from the blob's state table.
  std::size_t row_bytes = 0;
  {
    std::istringstream in(blob.substr(blob.find("\nstates ") + 1));
    std::string word;
    std::size_t states = 0;
    in >> word >> states;
    std::string line;
    std::getline(in, line);
    for (std::size_t s = 0; s < states && std::getline(in, line); ++s)
      row_bytes += std::stoul(line) * sizeof(acsr::TermId);
  }
  std::printf("cruise @ 1 ms: restore + resume peaks %zu bytes above its "
              "translation, a cold run %zu; the restored rows hold %zu\n",
              warm_peak, cold_peak, row_bytes);
  // A resumed run expands only the states left and records no parent
  // links, so it peaks below a cold run by more than one copy of the
  // restored rows: unless it keeps a second one.
  EXPECT_LE(warm_peak + row_bytes, cold_peak);
}

TEST(CheckpointAllocations, CounterSeesAllocations) {
  // Guards the tests above against a counter that never fires. A direct
  // operator new call, unlike a new-expression, is never elided.
  const Usage u = usage_of([] { ::operator delete(::operator new(4000)); });
  EXPECT_EQ(u.allocated, 4000u);
  EXPECT_EQ(u.peak_growth, 4000u);
}

}  // namespace
