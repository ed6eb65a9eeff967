// Golden pins for runs over the hardened transport.
//
// Each case runs a distributed algorithm under a fault plan with a trace
// sink installed and folds everything the run emits into one FNV-1a digest:
// every TraceEvent (kind, time, src, dst, type, queue_depth), the RunStats,
// the summed TransportStats and injector counters (the fault/* counters of
// the recorder) and the constructed WCDS.  The constants were recorded once
// and must not move when the runtime's queues are reorganized — a change in
// delivery order, queue depth or retransmit timing shows up here first.
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "fault/plan.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace wcds {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename Range>
  void add_all(const Range& range) {
    add(range.size());
    for (const auto& value : range) add(static_cast<std::uint64_t>(value));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct Pin {
  std::uint64_t transmissions;
  std::uint64_t deliveries;
  std::uint64_t timer_fires;
  sim::SimTime completion_time;
  std::uint64_t digest;

  friend bool operator==(const Pin&, const Pin&) = default;
};

std::ostream& operator<<(std::ostream& os, const Pin& pin) {
  return os << "{" << pin.transmissions << ", " << pin.deliveries << ", "
            << pin.timer_fires << ", " << pin.completion_time << ", 0x"
            << std::hex << pin.digest << std::dec << "}";
}

void add_trace(Fnv1a& hash, const std::vector<obs::TraceEvent>& events) {
  hash.add(events.size());
  for (const obs::TraceEvent& e : events) {
    hash.add(static_cast<std::uint64_t>(e.kind));
    hash.add(e.time);
    hash.add(e.src);
    hash.add(e.dst);
    hash.add(e.message_type);
    hash.add(e.queue_depth);
  }
}

void add_stats(Fnv1a& hash, const sim::RunStats& stats) {
  hash.add(stats.transmissions);
  hash.add(stats.deliveries);
  hash.add(stats.timer_fires);
  hash.add(stats.completion_time);
  hash.add(stats.quiescent ? 1 : 0);
  hash.add(stats.per_type.size());
  for (const auto& [type, count] : stats.per_type) {
    hash.add(type);
    hash.add(count);
  }
}

// The injector counters and the summed TransportStats, as folded into the
// recorder (fault/dropped, fault/acks, ...), in name order.
void add_fault_counters(Fnv1a& hash, const obs::MetricsSnapshot& snapshot) {
  std::uint64_t folded = 0;
  for (const auto& [name, count] : snapshot.counters) {
    if (name.rfind("fault/", 0) != 0) continue;
    for (const char c : name) hash.add(static_cast<unsigned char>(c));
    hash.add(count);
    ++folded;
  }
  hash.add(folded);
}

void add_wcds(Fnv1a& hash, const core::WcdsResult& wcds) {
  hash.add_all(wcds.dominators);
  hash.add_all(wcds.mis_dominators);
  hash.add_all(wcds.additional_dominators);
  hash.add_all(wcds.color);
}

template <typename Run>
Pin pin_of(const Run& run, const obs::Recorder& recorder,
           const obs::MemoryTraceSink& sink) {
  Fnv1a hash;
  add_trace(hash, sink.events());
  add_stats(hash, run.stats);
  add_fault_counters(hash, recorder.snapshot());
  add_wcds(hash, run.wcds);
  return {run.stats.transmissions, run.stats.deliveries,
          run.stats.timer_fires, run.stats.completion_time, hash.value()};
}

Pin hardened_pin(bool algorithm1, const graph::Graph& g,
                 const fault::Plan& plan, std::size_t threads = 1) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  if (algorithm1) {
    const auto run = protocols::run_algorithm1(
        g, sim::DelayModel::unit(), &recorder, &plan, threads);
    EXPECT_TRUE(run.stats.quiescent);
    return pin_of(run, recorder, sink);
  }
  const auto run = protocols::run_algorithm2(
      g, sim::DelayModel::unit(), &recorder, &plan, threads);
  EXPECT_TRUE(run.stats.quiescent);
  return pin_of(run, recorder, sink);
}

// Loss plus two crash windows: deafens and silences two radios mid-run.
fault::Plan lossy_with_crashes(const graph::Graph& g, std::uint64_t seed) {
  fault::Plan plan = fault::Plan::lossy(0.1, seed);
  const auto n = static_cast<NodeId>(g.node_count());
  plan.crash(static_cast<NodeId>(seed % n), 4, 30);
  plan.crash(static_cast<NodeId>((5 * seed + 2) % n), 12, 55);
  return plan;
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// Unit delays with zero jitter.
TEST(HardenedGolden, Algorithm1LossyIsPinned) {
  constexpr Pin kPins[] = {
      {18297, 30078, 492, 174, 0x3cdcf5095f39b0ea},
      {19163, 31510, 550, 169, 0xa8b0eaa817a3ad1e},
      {21202, 35400, 555, 316, 0xfae8de57f29bb123},
  };
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const auto inst = testing::connected_udg(70, 8.0, kSeeds[i]);
    EXPECT_EQ(hardened_pin(true, inst.g, fault::Plan::lossy(0.1, kSeeds[i])),
              kPins[i])
        << "seed " << kSeeds[i];
  }
}

TEST(HardenedGolden, Algorithm2LossyIsPinned) {
  constexpr Pin kPins[] = {
      {3430, 5640, 268, 152, 0xfe823070c2c76de6},
      {3400, 5611, 244, 123, 0x222a202ef5dd2dbc},
      {4152, 6962, 235, 123, 0xc1867c0ec6e9eb16},
  };
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const auto inst = testing::connected_udg(70, 8.0, kSeeds[i]);
    EXPECT_EQ(hardened_pin(false, inst.g, fault::Plan::lossy(0.1, kSeeds[i])),
              kPins[i])
        << "seed " << kSeeds[i];
  }
}

TEST(HardenedGolden, LossWithCrashWindowsIsPinned) {
  constexpr Pin kPins[][2] = {
      {{19190, 31472, 522, 233, 0xee44f43876206039},
       {3704, 6088, 287, 196, 0xbe113a1bc28d73e9}},
      {{21276, 34981, 593, 273, 0x1cb1a844ba0426b0},
       {3568, 5880, 271, 187, 0xebf76e11c37069f4}},
      {{22395, 37205, 631, 323, 0x7321daf46e2ae706},
       {4018, 6740, 292, 139, 0x6daa8127cc529199}},
  };
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const auto inst = testing::connected_udg(70, 8.0, kSeeds[i]);
    const fault::Plan plan = lossy_with_crashes(inst.g, kSeeds[i]);
    EXPECT_EQ(hardened_pin(true, inst.g, plan), kPins[i][0])
        << "alg1 seed " << kSeeds[i];
    EXPECT_EQ(hardened_pin(false, inst.g, plan), kPins[i][1])
        << "alg2 seed " << kSeeds[i];
  }
}

// Jitter keeps these on the (time, seq) heap: the control group.
TEST(HardenedGolden, ChaosWithJitterIsPinned) {
  constexpr Pin kPins[][2] = {
      {{23460, 39797, 679, 362, 0x4ebdbfa7a7b6f92b},
       {3762, 6328, 267, 139, 0x0a4efba48243921e}},
      {{28186, 47668, 678, 342, 0x82c8385d5ce51fa5},
       {3835, 6558, 283, 129, 0x3d2e4dd17f5c395f}},
      {{25302, 43301, 602, 333, 0x0b432a21881ed95d},
       {4259, 7351, 277, 161, 0x4a4e6a133b474887}},
  };
  for (std::size_t i = 0; i < std::size(kSeeds); ++i) {
    const auto inst = testing::connected_udg(70, 8.0, kSeeds[i]);
    const fault::Plan plan = fault::Plan::chaos(0.1, 0.05, 3, kSeeds[i]);
    EXPECT_EQ(hardened_pin(true, inst.g, plan), kPins[i][0])
        << "alg1 seed " << kSeeds[i];
    EXPECT_EQ(hardened_pin(false, inst.g, plan), kPins[i][1])
        << "alg2 seed " << kSeeds[i];
  }
}

// A disconnected fleet, component-sharded: one pin at every thread count.
TEST(HardenedGolden, ShardedFleetIsPinnedAtAnyThreadCount) {
  constexpr Pin kPin = {11107, 18382, 857, 140, 0x2b79733be1496e70};
  const auto fleet = testing::multi_component_udg(4, 60, 8.0, 5);
  const fault::Plan plan = fault::Plan::lossy(0.1, 23);
  for (const std::size_t threads : {1U, 2U, 8U}) {
    EXPECT_EQ(hardened_pin(false, fleet.g, plan, threads), kPin)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace wcds
