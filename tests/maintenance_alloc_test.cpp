// Counting-allocator check that a DynamicWcds event costs work bounded by
// its 3-hop region, not by n: the mean heap bytes allocated per move_node
// over a fixed seeded random-waypoint stream must not grow with the network
// size.  Bytes are a host-invariant stand-in for time: a per-event rebuild
// of the radio graph, or an n-sized distance vector per search, would make
// them grow linearly with n.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "maintenance/dynamic_wcds.h"
#include "mobility/models.h"

// --- Counting global allocator -------------------------------------------
//
// Replacing the global operator new/delete in this TU lets the test count
// every byte requested while an event runs.  Counting is gated on a flag so
// setup (and gtest itself) is unaffected.

namespace {
std::atomic<bool> g_count_bytes{false};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_count_bytes.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
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

// Mean bytes allocated per move_node at `n` nodes, expected degree 12: a
// warm-up of 100 moves, then 1000 counted moves of uniformly chosen nodes
// to their random-waypoint positions (one mobility step per 50 moves).
double mean_bytes_per_move(std::uint32_t n) {
  constexpr int kWarmup = 100;
  constexpr int kCounted = 1000;
  const bool audits_were = check::set_audits_enabled(false);
  const double side = geom::side_for_expected_degree(n, 12.0);
  const auto start = geom::uniform_square(n, side, 5);
  maintenance::DynamicWcds dyn(start);
  mobility::RandomWaypoint model(start, mobility::ArenaBox{side, side},
                                 mobility::WaypointParams{}, 6);
  geom::Xoshiro256ss rng(7);
  std::uint64_t bytes = 0;
  for (int k = 0; k < kWarmup + kCounted; ++k) {
    if (k % 50 == 0) model.step(1.0);
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const geom::Point target = model.positions()[u];
    g_bytes.store(0);
    g_count_bytes.store(true);
    (void)dyn.move_node(u, target);
    g_count_bytes.store(false);
    if (k >= kWarmup) bytes += g_bytes.load();
  }
  check::set_audits_enabled(audits_were);
  return static_cast<double>(bytes) / kCounted;
}

TEST(MaintenanceAllocations, MoveBytesDoNotGrowWithN) {
  const double small = mean_bytes_per_move(2048);
  const double large = mean_bytes_per_move(16384);
  RecordProperty("bytes_per_move_n2048", static_cast<int>(small));
  RecordProperty("bytes_per_move_n16384", static_cast<int>(large));
  EXPECT_GT(small, 0.0);
  EXPECT_LE(large, 1.5 * small)
      << "mean bytes per move_node: n = 2048 " << small << ", n = 16384 "
      << large;
}

}  // namespace
