// Differential suite for the sim's event queue (docs/PERFORMANCE.md).
//
// sim::Runtime (pooled payloads + one time-bucket ring) must be
// observationally identical to sim::ReferenceRuntime, the std::map queue it
// replaced, kept as a test-only oracle (tests/oracle/): the same delivery
// sequence — every trace event's (kind, time, src, dst, type, queue depth) —
// the same RunStats, and the same WCDS, across both algorithms, both delay
// regimes and many seeds.  Runs with fault plans and local timers, which the
// oracle cannot replay, are pinned to recorded FNV-1a digests of their trace
// and RunStats, including the timer and with_node edge cases of the drain
// loop.  A counting-allocator test then pins down the point of the
// exercise: the broadcast path performs no per-delivery heap allocation.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "oracle/reference_runtime.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"

// --- Counting global allocator -------------------------------------------
//
// Replacing the global operator new/delete in this TU lets one test count
// exactly how many heap allocations Runtime::run performs.  Counting is
// gated on a flag so the rest of the suite (and gtest itself) is unaffected.

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

struct TracedRun {
  sim::RunStats stats;
  std::vector<obs::TraceEvent> events;
  std::vector<NodeId> dominators;
};

// The production path: run_algorithm{1,2} over sim::Runtime.
TracedRun traced_run(const graph::Graph& g, bool alg1,
                     const sim::DelayModel& delays) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  TracedRun out;
  if (alg1) {
    auto run = protocols::run_algorithm1(g, delays, &recorder);
    out.stats = run.stats;
    out.dominators = run.wcds.dominators;
  } else {
    auto run = protocols::run_algorithm2(g, delays, &recorder);
    out.stats = run.stats;
    out.dominators = run.wcds.dominators;
  }
  out.events = sink.events();
  return out;
}

// The oracle: the public protocol nodes replayed on the map queue, their
// dominators read back in ascending id order as run_algorithm{1,2} do.
TracedRun oracle_run(const graph::Graph& g, bool alg1,
                     const sim::DelayModel& delays) {
  obs::MemoryTraceSink sink;
  sim::ReferenceRuntime oracle(
      g,
      [alg1](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
        if (alg1) return std::make_unique<protocols::Algorithm1Node>();
        return std::make_unique<protocols::Algorithm2Node>();
      },
      delays, &sink);
  TracedRun out;
  out.stats = oracle.run();
  out.events = sink.events();
  for (NodeId u = 0; u < oracle.node_count(); ++u) {
    bool dominator = false;
    if (alg1) {
      dominator = static_cast<const protocols::Algorithm1Node&>(oracle.node(u))
                      .is_dominator();
    } else {
      const auto& node =
          static_cast<const protocols::Algorithm2Node&>(oracle.node(u));
      dominator = node.is_mis_dominator() || node.is_additional_dominator();
    }
    if (dominator) out.dominators.push_back(u);
  }
  return out;
}

void expect_same_trace(const TracedRun& flat, const TracedRun& map) {
  ASSERT_EQ(flat.events.size(), map.events.size());
  for (std::size_t i = 0; i < flat.events.size(); ++i) {
    const obs::TraceEvent& a = flat.events[i];
    const obs::TraceEvent& b = map.events[i];
    ASSERT_EQ(a.kind, b.kind) << "event " << i;
    ASSERT_EQ(a.time, b.time) << "event " << i;
    ASSERT_EQ(a.src, b.src) << "event " << i;
    ASSERT_EQ(a.dst, b.dst) << "event " << i;
    ASSERT_EQ(a.message_type, b.message_type) << "event " << i;
    ASSERT_EQ(a.queue_depth, b.queue_depth) << "event " << i;
  }
  EXPECT_EQ(flat.stats, map.stats);
  EXPECT_EQ(flat.dominators, map.dominators);
}

TEST(RuntimeQueueDifferential, FlatMatchesReferenceMapAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(150, 8.0, seed);
    for (const bool alg1 : {true, false}) {
      for (const bool async : {false, true}) {
        const auto delays = async ? sim::DelayModel::uniform(1, 5, seed)
                                  : sim::DelayModel::unit();
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " alg1=" << alg1
                     << " async=" << async);
        const auto flat = traced_run(inst.g, alg1, delays);
        const auto map = oracle_run(inst.g, alg1, delays);
        expect_same_trace(flat, map);
        EXPECT_TRUE(flat.stats.quiescent);
        EXPECT_FALSE(flat.dominators.empty());
      }
    }
  }
}

// The oracle has no timers: a node that arms one is refused with a
// check::CheckError, not a null dereference.
TEST(RuntimeQueueDifferential, OracleRefusesTimersWithACheckError) {
  class TimerNode final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override { ctx.set_timer(1, 0); }
    void on_receive(sim::Context&, const sim::Message&) override {}
  };
  const auto g = graph::from_edges(2, {{0, 1}});
  sim::ReferenceRuntime oracle(
      g, [](NodeId) { return std::make_unique<TimerNode>(); });
  EXPECT_THROW(oracle.run(), check::CheckError);
}

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Every trace event and the RunStats.
void add_traced(Fnv1a& hash, const TracedRun& run) {
  hash.add(run.events.size());
  for (const obs::TraceEvent& e : run.events) {
    hash.add(static_cast<std::uint64_t>(e.kind));
    hash.add(e.time);
    hash.add(e.src);
    hash.add(e.dst);
    hash.add(e.message_type);
    hash.add(e.queue_depth);
  }
  const sim::RunStats& stats = run.stats;
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

std::uint64_t digest_of(const TracedRun& run) {
  Fnv1a hash;
  add_traced(hash, run);
  return hash.value();
}

struct HardenedRawRun {
  TracedRun traced;
  fault::TransportStats transport;
  fault::Injector::Counters counters;
};

void add_hardened(Fnv1a& hash, const HardenedRawRun& run) {
  add_traced(hash, run.traced);
  hash.add(run.transport.frames_sent);
  hash.add(run.transport.retransmits);
  hash.add(run.transport.acks_sent);
  hash.add(run.transport.duplicates_ignored);
  hash.add(run.counters.suppressed_sends);
  hash.add(run.counters.dropped);
  hash.add(run.counters.duplicated);
  hash.add(run.counters.blocked_receives);
}

// Both algorithms wrapped in the hardened transport (retransmit timers
// included) on a raw runtime with the plan's injector installed.
HardenedRawRun hardened_raw_run(const graph::Graph& g, bool alg1,
                                const fault::Plan& plan) {
  fault::Injector injector(plan, g.node_count());
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  const sim::Runtime::NodeFactory factory =
      [alg1](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
    if (alg1) {
      return std::make_unique<fault::HardenedNode>(
          std::make_unique<protocols::Algorithm1Node>());
    }
    return std::make_unique<fault::HardenedNode>(
        std::make_unique<protocols::Algorithm2Node>());
  };
  sim::Runtime rt(g, factory, sim::DelayModel::unit(), &recorder, &injector);
  HardenedRawRun out;
  out.traced.stats = rt.run();
  out.traced.events = sink.events();
  out.transport = fault::collect_transport_stats(rt);
  out.counters = injector.counters();
  return out;
}

// Lossy, duplicating and crash plans under unit delays, with retransmit
// timers up to 64 steps out: one digest per (plan, algorithm) over six
// seeds of trace, RunStats, transport and injector counters.
TEST(RuntimeQueueDifferential, FaultPlansMatchRecordedDigests) {
  // [plan][alg1 ? 0 : 1]
  constexpr std::uint64_t kPinned[3][2] = {
      {0xf13e7c745e60bdc5ULL, 0x63e41f58e3a00628ULL},
      {0x7d1e33f95372b708ULL, 0x4ba1622094a253d3ULL},
      {0xeb09d17949314869ULL, 0x03b457ff12dd4144ULL},
  };
  for (std::size_t p = 0; p < 3; ++p) {
    for (const bool alg1 : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "plan=" << p << " alg1=" << alg1);
      Fnv1a hash;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const auto inst = wcds::testing::connected_udg(60, 8.0, seed);
        fault::Plan with_crashes = fault::Plan::lossy(0.15, seed);
        with_crashes.crash(static_cast<NodeId>(seed % 60), 3, 25);
        with_crashes.crash(static_cast<NodeId>((7 * seed) % 60), 10, 40);
        const fault::Plan plans[] = {fault::Plan::lossy(0.1, seed),
                                     fault::Plan::chaos(0.1, 0.1, 0, seed),
                                     with_crashes};
        const auto run = hardened_raw_run(inst.g, alg1, plans[p]);
        EXPECT_TRUE(run.traced.stats.quiescent);
        EXPECT_GT(run.traced.stats.timer_fires, 0u);
        add_hardened(hash, run);
      }
      EXPECT_EQ(hash.value(), kPinned[p][alg1 ? 0 : 1]);
    }
  }
}

// --- Timers and with_node ------------------------------------------------------

// Hop-limited gossip that mixes direct sends with timer-driven ones.  A
// token with h hops left is rebroadcast at once when h is odd; when h is
// even a timer rebroadcasts it later: after 0 ticks (due in the bucket being
// drained) or after 9 ticks (long after the radio has gone quiet).
// Token kSilent arms a timer that sends nothing.
class TimerGossipNode final : public sim::ProtocolNode {
 public:
  static constexpr std::uint64_t kSilent = 1000;

  explicit TimerGossipNode(NodeId id) : id_(id) {}

  void on_start(sim::Context& ctx) override {
    switch (id_ % 4) {
      case 0: ctx.broadcast(1, {5}); break;
      case 1: ctx.set_timer(0, 4); break;
      case 2: ctx.set_timer(12, 3); break;
      default: ctx.set_timer(40, kSilent); break;
    }
  }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    const std::uint32_t hops = msg.payload[0];
    if (hops == 0) return;
    if (hops % 2 == 1) {
      ctx.broadcast(1, {hops - 1});
    } else {
      ctx.set_timer(hops % 4 == 0 ? 9 : 0, hops - 1);
    }
  }
  void on_timer(sim::Context& ctx, std::uint64_t token) override {
    if (token == kSilent) return;
    ctx.broadcast(2, {static_cast<std::uint32_t>(token)});
  }

 private:
  NodeId id_;
};

// Runs `Node` (constructed from its id) on `g` under unit delays with no
// fault hook, letting `drive` call run() / with_node as it likes.
template <typename Node = TimerGossipNode, typename Drive>
TracedRun gossip_run(const graph::Graph& g, Drive&& drive) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  sim::Runtime rt(
      g, [](NodeId u) { return std::make_unique<Node>(u); },
      sim::DelayModel::unit(), &recorder);
  drive(rt);
  TracedRun out;
  out.stats = rt.stats();
  out.events = sink.events();
  return out;
}

// A 12-ring with two chords: small enough that the gossip stays bounded.
graph::Graph gossip_graph() {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 12; ++u) edges.push_back({u, (u + 1) % 12});
  edges.push_back({0, 6});
  edges.push_back({3, 9});
  return graph::from_edges(12, edges);
}

// The gossip's one uninterrupted run.
constexpr std::uint64_t kGossipDigest = 0x332d3d03e30f1a16ULL;

// The gossip includes idle stretches too: token 4 waits 9 ticks and the
// silent timers fire at 40, well after the last delivery.
TEST(CalendarTimers, NullHookUnitDelayTimersMatchRecordedDigest) {
  const auto run = gossip_run(gossip_graph(), [](sim::Runtime& rt) {
    EXPECT_TRUE(rt.run().quiescent);
  });
  EXPECT_GT(run.stats.timer_fires, 0u);
  EXPECT_GT(run.stats.deliveries, 0u);
  EXPECT_EQ(digest_of(run), kGossipDigest);
}

// Two nodes: node 0 broadcasts and arms a 0-tick timer at time 0, so the
// timer fires before the first delivery (time 1) and its own broadcast
// lands at time 1 behind the first one.
TEST(CalendarTimers, TimerDueBeforeTheNextBucketFiresFirst) {
  class Starter final : public sim::ProtocolNode {
   public:
    explicit Starter(NodeId id) : id_(id) {}
    void on_start(sim::Context& ctx) override {
      if (id_ != 0) return;
      ctx.broadcast(1);
      ctx.set_timer(0, 7);
    }
    void on_receive(sim::Context& ctx, const sim::Message& msg) override {
      heard.emplace_back(ctx.now(), msg.type);
    }
    void on_timer(sim::Context& ctx, std::uint64_t token) override {
      EXPECT_EQ(ctx.now(), 0u);
      EXPECT_EQ(token, 7u);
      ctx.broadcast(2);
    }
    std::vector<std::pair<sim::SimTime, sim::MessageType>> heard;

   private:
    NodeId id_;
  };
  const auto g = graph::from_edges(2, {{0, 1}});
  sim::Runtime rt(g, [](NodeId u) { return std::make_unique<Starter>(u); });
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.timer_fires, 1u);
  EXPECT_EQ(stats.completion_time, 1u);
  using Heard = std::vector<std::pair<sim::SimTime, sim::MessageType>>;
  EXPECT_EQ(static_cast<const Starter&>(rt.node(1)).heard,
            (Heard{{1, 1}, {1, 2}}));
}

// Nothing in flight for a long stretch, only a pending timer: the drain
// skips the empty buckets to the timer, and the queue re-anchors when a
// timer is armed on an idle runtime.
TEST(CalendarTimers, IdleStretchWithOnlyTimersPending) {
  class Sleeper final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override {
      if (ctx.self() == 0) ctx.set_timer(20, 1);
    }
    void on_receive(sim::Context& ctx, const sim::Message& msg) override {
      if (msg.type == 1) ctx.set_timer(30, 2);
    }
    void on_timer(sim::Context& ctx, std::uint64_t token) override {
      ctx.broadcast(static_cast<sim::MessageType>(token));
    }
  };
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  sim::Runtime rt(g, [](NodeId) { return std::make_unique<Sleeper>(); });
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  // Node 0 wakes at 20 (delivery at 21); node 1 wakes at 51 (deliveries at
  // 52 to nodes 0 and 2).
  EXPECT_EQ(stats.timer_fires, 2u);
  EXPECT_EQ(stats.transmissions, 2u);
  EXPECT_EQ(stats.deliveries, 3u);
  EXPECT_EQ(stats.completion_time, 52u);
}

// A budget that trips mid-bucket (and mid-timer-stretch), then resumed
// run() calls: the stitched trace equals one uninterrupted run.
TEST(CalendarTimers, BudgetTripMidBucketThenResume) {
  const auto g = gossip_graph();
  for (const std::uint64_t budget : {1U, 2U, 3U, 5U, 7U, 11U, 40U}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    const auto chunked = gossip_run(g, [budget](sim::Runtime& rt) {
      int trips = 0;
      while (!rt.run(budget).quiescent) ++trips;
      EXPECT_GT(trips, 0);
    });
    EXPECT_EQ(digest_of(chunked), kGossipDigest);
  }
}

// The gossip run ends on the silent timer at 40, long after the last
// delivery, so with_node sends at completion_time + 1 — behind the timer
// that fired last, on an idle queue.  Its first send is a unicast from the
// idle runtime, traced after its copy is queued: queue_depth counts pending
// deliveries after the event.
TEST(CalendarTimers, WithNodeAfterARunEndingInATimer) {
  const auto run = gossip_run(gossip_graph(), [](sim::Runtime& rt) {
    const auto first = rt.run();
    EXPECT_TRUE(first.quiescent);
    EXPECT_LT(first.completion_time, 40u);
    rt.with_node(5, [](sim::Context& ctx, sim::ProtocolNode&) {
      ctx.unicast(6, 1, {0});
      ctx.broadcast(1, {3});
    });
    const auto second = rt.run();
    EXPECT_TRUE(second.quiescent);
    EXPECT_GT(second.deliveries, first.deliveries);
    EXPECT_GT(second.completion_time, first.completion_time);
  });
  EXPECT_EQ(digest_of(run), 0x0c68d5c2db81d3f7ULL);
  const auto unicast = std::find_if(
      run.events.begin(), run.events.end(), [](const obs::TraceEvent& e) {
        return e.kind == obs::TraceEvent::Kind::kSend && e.dst == 6;
      });
  ASSERT_NE(unicast, run.events.end());
  EXPECT_EQ(unicast->queue_depth, 1u);
}

// A budget that trips at or inside a time step: with_node's sends (at
// completion_time + 1) may be due on the step the drain stopped in, and
// must sort after its pending deliveries.
TEST(CalendarTimers, WithNodeAfterABudgetTripAtAStepBoundary) {
  // Hop-limited flooding without timers: every node relays a token with
  // hops left once per copy it hears.
  class Relay final : public sim::ProtocolNode {
   public:
    explicit Relay(NodeId id) : id_(id) {}
    void on_start(sim::Context& ctx) override {
      if (id_ == 0) ctx.broadcast(1, {4});
    }
    void on_receive(sim::Context& ctx, const sim::Message& msg) override {
      if (msg.payload[0] > 0) ctx.broadcast(1, {msg.payload[0] - 1});
    }

   private:
    NodeId id_;
  };
  // Indexed by budget - 1.
  constexpr std::uint64_t kPinned[] = {
      0xdf735bad0866404cULL, 0x5e8875a7b08bb10cULL, 0xbbf3f45775cef6e3ULL,
      0x03e9adc85a64e4f6ULL, 0xb867b39140ff447aULL, 0x87f93cd681c5a5a2ULL,
  };
  const auto path = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (const std::uint64_t budget : {1U, 2U, 3U, 4U, 5U, 6U}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    const auto run = gossip_run<Relay>(path, [budget](sim::Runtime& rt) {
      EXPECT_FALSE(rt.run(budget).quiescent);
      rt.with_node(3, [](sim::Context& ctx, sim::ProtocolNode&) {
        ctx.broadcast(1, {2});
      });
      EXPECT_TRUE(rt.run().quiescent);
    });
    EXPECT_EQ(digest_of(run), kPinned[budget - 1]);
  }
}

// The budget trips right after a timer fired at 4, with its delivery at 5
// still queued and the last delivery at 1.  with_node then sends at 2,
// behind the drain cursor: the send is delivered first, in (time, seq)
// order, not refused.
TEST(CalendarTimers, WithNodeAfterATimerTripsTheBudget) {
  class Pinger final : public sim::ProtocolNode {
   public:
    explicit Pinger(NodeId id) : id_(id) {}
    void on_start(sim::Context& ctx) override {
      if (id_ != 0) return;
      ctx.broadcast(1);
      ctx.set_timer(4, 0);
    }
    void on_receive(sim::Context& ctx, const sim::Message& msg) override {
      heard.emplace_back(ctx.now(), msg.type);
    }
    void on_timer(sim::Context& ctx, std::uint64_t) override {
      ctx.broadcast(2);
    }
    std::vector<std::pair<sim::SimTime, sim::MessageType>> heard;

   private:
    NodeId id_;
  };
  const auto pair = graph::from_edges(2, {{0, 1}});
  const auto run = gossip_run<Pinger>(pair, [](sim::Runtime& rt) {
    const auto tripped = rt.run(2);
    EXPECT_FALSE(tripped.quiescent);
    EXPECT_EQ(tripped.timer_fires, 1u);
    EXPECT_EQ(tripped.completion_time, 1u);
    rt.with_node(1, [](sim::Context& ctx, sim::ProtocolNode&) {
      ctx.broadcast(3);
    });
    EXPECT_TRUE(rt.run().quiescent);
    using Heard = std::vector<std::pair<sim::SimTime, sim::MessageType>>;
    EXPECT_EQ(static_cast<const Pinger&>(rt.node(0)).heard, (Heard{{2, 3}}));
    EXPECT_EQ(static_cast<const Pinger&>(rt.node(1)).heard,
              (Heard{{1, 1}, {5, 2}}));
  });
  EXPECT_EQ(digest_of(run), 0x47c71d4ba166dcd1ULL);
}

// A timer far past the queue horizon is refused with a check::CheckError,
// never served by a ring sized to match it; so is a delay that would wrap
// the clock.
TEST(CalendarTimers, TimerPastTheHorizonIsACheckError) {
  class FarTimer final : public sim::ProtocolNode {
   public:
    explicit FarTimer(sim::SimTime delay) : delay_(delay) {}
    void on_start(sim::Context& ctx) override { ctx.set_timer(delay_, 0); }
    void on_receive(sim::Context&, const sim::Message&) override {}

   private:
    sim::SimTime delay_;
  };
  const auto g = graph::from_edges(2, {{0, 1}});
  for (const sim::SimTime delay :
       {sim::SimTime{1} << 40, ~sim::SimTime{0}, sim::kQueueHorizon + 1}) {
    sim::Runtime rt(g, [delay](NodeId) {
      return std::make_unique<FarTimer>(delay);
    });
    EXPECT_THROW(rt.run(), check::CheckError) << "delay=" << delay;
  }
}

// The same horizon bounds deliveries: a delay model whose delays reach past
// it fails on the first send.
TEST(CalendarTimers, DeliveryPastTheHorizonIsACheckError) {
  class Sender final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
    void on_receive(sim::Context&, const sim::Message&) override {}
  };
  const auto g = graph::from_edges(2, {{0, 1}});
  const sim::SimTime far = sim::kQueueHorizon + 1;
  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<Sender>(); },
      sim::DelayModel::uniform(far, far, 1));
  EXPECT_THROW(rt.run(), check::CheckError);
}

// A protocol that floods forever: every node broadcasts on start; every
// delivery triggers one more broadcast.  Used to trip the event budget and
// to count allocations on the broadcast hot path.
class ChatterNode final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
  void on_receive(sim::Context& ctx, const sim::Message&) override {
    ctx.broadcast(1);
  }
};

TEST(RuntimeQueue, BudgetTripStillFoldsStatsAndRecordsQuiescentGauge) {
  const graph::Graph g = graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  obs::Recorder recorder;
  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<ChatterNode>(); },
      sim::DelayModel::unit(), &recorder);
  const auto stats = rt.run(/*max_events=*/100);
  EXPECT_FALSE(stats.quiescent);
  EXPECT_EQ(stats.deliveries, 100u);
  // The budget-tripped run still folds the dense counters into per_type
  // and the metrics into the recorder (the pre-fix code skipped both).
  ASSERT_TRUE(stats.per_type.contains(1));
  EXPECT_GT(stats.per_type.at(1), 0u);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("sim/quiescent"));
  EXPECT_EQ(snapshot.gauges.at("sim/quiescent"), 0.0);
  EXPECT_EQ(snapshot.counters.at("sim/transmissions"), stats.transmissions);
}

TEST(RuntimeQueue, QuiescentRunRecordsGaugeOne) {
  const auto inst = wcds::testing::connected_udg(40, 8.0, 1);
  obs::Recorder recorder;
  const auto run = protocols::run_algorithm2(inst.g, sim::DelayModel::unit(),
                                             &recorder);
  EXPECT_TRUE(run.stats.quiescent);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("sim/quiescent"));
  EXPECT_EQ(snapshot.gauges.at("sim/quiescent"), 1.0);
}

// The point of the pooled queue: a degree-d broadcast enqueues d POD records
// sharing one interned payload, so a full run performs only the amortized
// container growth — far fewer allocations than deliveries.  The reference
// map allocates at least one tree node per delivery.
TEST(RuntimeQueue, BroadcastPathAllocationCount) {
  // Star K_{1,512}: the hub's single broadcast fans out to 512 recipients.
  constexpr std::uint32_t kLeaves = 512;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(kLeaves);
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) edges.push_back({0, leaf});
  const graph::Graph g = graph::from_edges(kLeaves + 1, edges);

  // Every node broadcasts once on start; nobody replies.  Deliveries:
  // 512 (hub's broadcast) + 512 (each leaf's broadcast reaching the hub).
  class OneShotNode final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
    void on_receive(sim::Context&, const sim::Message&) override {}
  };

  const auto factory = [](NodeId) { return std::make_unique<OneShotNode>(); };
  auto count_allocs = [&](auto& rt) {
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    const auto stats = rt.run();
    g_count_allocs.store(false, std::memory_order_relaxed);
    EXPECT_EQ(stats.deliveries, 2u * kLeaves);
    return g_alloc_count.load(std::memory_order_relaxed);
  };

  sim::Runtime flat(g, factory);
  sim::ReferenceRuntime map(g, factory);
  const std::uint64_t flat_allocs = count_allocs(flat);
  const std::uint64_t map_allocs = count_allocs(map);
  // Flat: pool-deque blocks, event-pool doublings, the per-type vector —
  // all amortized, orders of magnitude below the 1024 deliveries.
  EXPECT_LT(flat_allocs, 100u);
  // Reference map: >= one node allocation per pending delivery.
  EXPECT_GT(map_allocs, 1000u);
}

}  // namespace
