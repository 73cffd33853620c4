// The fixed cost of an empty acsr::Context, pinned as a byte count rather
// than a time: every model a fleet run decides pays it once, and a count
// does not drift with the host. A counting global operator new (this
// binary's own, so no other suite is affected) records what the
// constructor allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "acsr/context.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
