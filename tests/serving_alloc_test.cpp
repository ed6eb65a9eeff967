// Counting-allocator check for the serving hot path (docs/SERVING.md): once
// a thread has served one request, inter-domain serve() calls reuse that
// thread's overlay-search scratch and make no heap allocation at all — not
// on the nearest-first ring search, not on the walk, and not on the
// continuation after a Bloom false positive.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "service/engine.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

// --- Counting global allocator -------------------------------------------
//
// Replacing the global operator new/delete in this TU lets the test count
// every heap allocation made while serving.  Counting is gated on a flag so
// setup (and gtest itself) is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

// --------------------------------------------------------------------------

namespace {

using namespace wcds;

struct Call {
  service::Request request;
  std::uint64_t index = 0;
};

// Requests the engine resolves inter-domain, with their request indices.
std::vector<Call> inter_domain_calls(const service::ServingEngine& engine,
                                     const service::ServiceRegistry& registry,
                                     bool need_false_positive) {
  const auto requests = service::uniform_requests(registry, 8000, 3);
  std::vector<Call> calls;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::Outcome out = engine.serve(requests[i], i);
    if (out.resolution != service::Resolution::kInterDomain) continue;
    if (need_false_positive && out.bloom_fp == 0) continue;
    calls.push_back({requests[i], i});
  }
  return calls;
}

// Two worker threads each serve one warm-up call, then together make
// `total` counted calls cycling through `calls`.
std::uint64_t count_serving_allocs(const service::ServingEngine& engine,
                                   const std::vector<Call>& calls,
                                   std::size_t total) {
  constexpr std::size_t kThreads = 2;
  std::atomic<std::size_t> warm{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> delivered{0};
  const auto worker = [&](std::size_t t) {
    (void)engine.serve(calls[t].request, calls[t].index);
    warm.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    std::uint64_t ok = 0;
    for (std::size_t k = t; k < total; k += kThreads) {
      const Call& c = calls[k % calls.size()];
      ok += engine.serve(c.request, c.index).delivered;
    }
    delivered.fetch_add(ok);
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  while (warm.load() < kThreads) std::this_thread::yield();
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  go.store(true);
  for (std::thread& th : threads) th.join();
  g_count_allocs.store(false);
  EXPECT_GT(delivered.load(), 0u);
  return g_alloc_count.load();
}

TEST(ServingAllocations, InterDomainServeIsAllocationFree) {
  const auto inst = wcds::testing::connected_udg(1200, 14.0, 5);
  const auto backbone = core::algorithm2(inst.g);
  const auto registry = service::uniform_registry(1200, 256, 2, 9);
  const service::ServingEngine engine(inst.g, backbone, registry);
  const auto calls = inter_domain_calls(engine, registry, false);
  ASSERT_GT(calls.size(), 1000u);
  EXPECT_EQ(count_serving_allocs(engine, calls, 10'000), 0u);
}

TEST(ServingAllocations, FalsePositiveContinuationIsAllocationFree) {
  // One bit per entry: most Bloom answers are false positives, so the walk
  // continues from probed domain to probed domain.  Loss adds retries.
  const auto inst = wcds::testing::connected_udg(1200, 14.0, 5);
  const auto backbone = core::algorithm2(inst.g);
  const auto registry = service::uniform_registry(1200, 256, 2, 9);
  const fault::Plan plan = fault::Plan::lossy(0.10, 8);
  service::ServingOptions options;
  options.faults = &plan;
  options.bloom.bits_per_entry = 1;
  const service::ServingEngine engine(inst.g, backbone, registry, options);
  const auto calls = inter_domain_calls(engine, registry, true);
  ASSERT_GT(calls.size(), 1000u);
  EXPECT_EQ(count_serving_allocs(engine, calls, 10'000), 0u);
}

}  // namespace
