// Differential suite for the sim's event queues (docs/PERFORMANCE.md).
//
// sim::Runtime (pooled payloads + calendar/heap) must be observationally
// identical to sim::ReferenceRuntime, the std::map queue it replaced, kept
// as a test-only oracle (tests/oracle/): the same delivery sequence — every
// trace event's (kind, time, src, dst, type, queue depth) — the same
// RunStats, and the same WCDS, across both algorithms, both delay regimes
// and many seeds.  Within Runtime, the unit-delay calendar must match the
// (time, seq) heap under jitter-free fault plans and with local timers
// merged in, including the timer edge cases of the merged drain loop.  A
// counting-allocator test then pins down the point of the exercise: the
// broadcast path performs no per-delivery heap allocation.
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

// Forwards every decision to a fault::Injector but claims one tick of
// jitter, which makes the runtime pick the (time, seq) heap even though
// every copy still lands one step out.
class HeapForcingHook final : public sim::FaultHook {
 public:
  explicit HeapForcingHook(fault::Injector& inner) : inner_(inner) {}
  bool send_blocked(NodeId src, sim::SimTime now) override {
    return inner_.send_blocked(src, now);
  }
  bool drop_copy(std::size_t link_slot) override {
    return inner_.drop_copy(link_slot);
  }
  bool duplicate_copy(std::size_t link_slot) override {
    return inner_.duplicate_copy(link_slot);
  }
  sim::SimTime extra_delay() override { return inner_.extra_delay(); }
  sim::SimTime max_extra_delay() const override { return 1; }
  bool receive_blocked(NodeId recipient, sim::SimTime at) override {
    return inner_.receive_blocked(recipient, at);
  }

 private:
  fault::Injector& inner_;
};

struct HardenedRawRun {
  TracedRun traced;
  fault::TransportStats transport;
  fault::Injector::Counters counters;
  bool calendar = false;
};

// Both algorithms wrapped in the hardened transport (retransmit timers
// included) on a raw runtime, with the plan's injector installed directly
// or behind HeapForcingHook.
HardenedRawRun hardened_raw_run(const graph::Graph& g, bool alg1,
                                const fault::Plan& plan, bool force_heap) {
  fault::Injector injector(plan, g.node_count());
  HeapForcingHook forcing(injector);
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
  sim::Runtime rt(g, factory, sim::DelayModel::unit(), &recorder,
                  force_heap ? static_cast<sim::FaultHook*>(&forcing)
                             : &injector);
  HardenedRawRun out;
  out.traced.stats = rt.run();
  out.traced.events = sink.events();
  out.transport = fault::collect_transport_stats(rt);
  out.counters = injector.counters();
  out.calendar = rt.uses_calendar();
  return out;
}

// Jitter-free plans run on the calendar; the same decisions replayed on the
// heap must give the same trace, RunStats, transport and injector counters.
TEST(RuntimeQueueDifferential, CalendarMatchesHeapUnderFaultPlans) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = wcds::testing::connected_udg(60, 8.0, seed);
    fault::Plan with_crashes = fault::Plan::lossy(0.15, seed);
    with_crashes.crash(static_cast<NodeId>(seed % 60), 3, 25);
    with_crashes.crash(static_cast<NodeId>((7 * seed) % 60), 10, 40);
    const fault::Plan plans[] = {fault::Plan::lossy(0.1, seed),
                                 fault::Plan::chaos(0.1, 0.1, 0, seed),
                                 with_crashes};
    for (std::size_t p = 0; p < std::size(plans); ++p) {
      for (const bool alg1 : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " plan=" << p
                                          << " alg1=" << alg1);
        const auto calendar = hardened_raw_run(inst.g, alg1, plans[p], false);
        const auto heap = hardened_raw_run(inst.g, alg1, plans[p], true);
        EXPECT_TRUE(calendar.calendar);
        EXPECT_FALSE(heap.calendar);
        EXPECT_TRUE(calendar.traced.stats.quiescent);
        EXPECT_GT(calendar.traced.stats.timer_fires, 0u);
        expect_same_trace(calendar.traced, heap.traced);
        EXPECT_EQ(calendar.transport, heap.transport);
        EXPECT_EQ(calendar.counters, heap.counters);
      }
    }
  }
}

TEST(RuntimeQueueDifferential, QueueChoiceFollowsTheDelayBound) {
  const auto g = graph::from_edges(2, {{0, 1}});
  const auto factory = [](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
    return std::make_unique<protocols::Algorithm2Node>();
  };
  fault::Injector lossy(fault::Plan::lossy(0.5, 1), 2);
  fault::Injector jitter(fault::Plan::chaos(0.0, 0.0, 2, 1), 2);
  const auto uses_calendar = [&](const sim::DelayModel& delays,
                                 sim::FaultHook* hook) {
    return sim::Runtime(g, factory, delays, nullptr, hook).uses_calendar();
  };
  const auto unit = sim::DelayModel::unit();
  const auto async = sim::DelayModel::uniform(1, 3, 1);
  EXPECT_TRUE(uses_calendar(unit, nullptr));
  EXPECT_TRUE(uses_calendar(unit, &lossy));
  EXPECT_FALSE(uses_calendar(unit, &jitter));
  EXPECT_FALSE(uses_calendar(async, nullptr));
  EXPECT_FALSE(uses_calendar(async, &lossy));
}

// --- Timers on the calendar ------------------------------------------------

// Hop-limited gossip that mixes direct sends with timer-driven ones.  A
// token with h hops left is rebroadcast at once when h is odd; when h is
// even a timer rebroadcasts it later: after 0 ticks (due before the next
// calendar bucket) or after 9 ticks (long after the radio has gone quiet).
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
// fault hook (the calendar) or with a trivial injector behind
// HeapForcingHook (the heap), letting `drive` call run() / with_node as it
// likes.
template <typename Node = TimerGossipNode, typename Drive>
TracedRun gossip_run(const graph::Graph& g, bool force_heap, Drive&& drive) {
  fault::Injector trivial(fault::Plan{}, g.node_count());
  HeapForcingHook forcing(trivial);
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  sim::Runtime rt(
      g, [](NodeId u) { return std::make_unique<Node>(u); },
      sim::DelayModel::unit(), &recorder, force_heap ? &forcing : nullptr);
  EXPECT_EQ(rt.uses_calendar(), !force_heap);
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

// The gossip includes idle stretches too: token 4 waits 9 ticks and the
// silent timers fire at 40, well after the last delivery.
TEST(CalendarTimers, NullHookUnitDelayTimersMatchTheHeap) {
  const auto g = gossip_graph();
  const auto run_once = [](sim::Runtime& rt) {
    EXPECT_TRUE(rt.run().quiescent);
  };
  const auto calendar = gossip_run(g, false, run_once);
  const auto heap = gossip_run(g, true, run_once);
  EXPECT_GT(calendar.stats.timer_fires, 0u);
  EXPECT_GT(calendar.stats.deliveries, 0u);
  expect_same_trace(calendar, heap);
}

// Two nodes: node 0 broadcasts and arms a 0-tick timer at time 0, so the
// timer is due before the first calendar bucket (time 1) and its own
// broadcast joins that bucket behind the first one.
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
  ASSERT_TRUE(rt.uses_calendar());
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.timer_fires, 1u);
  EXPECT_EQ(stats.completion_time, 1u);
  using Heard = std::vector<std::pair<sim::SimTime, sim::MessageType>>;
  EXPECT_EQ(static_cast<const Starter&>(rt.node(1)).heard,
            (Heard{{1, 1}, {1, 2}}));
}

// Nothing in flight for a long stretch, only a pending timer: the calendar
// jumps to the timer and re-anchors on its sends.
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
  ASSERT_TRUE(rt.uses_calendar());
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
// run() calls: the stitched trace equals one uninterrupted run, on the
// calendar and on the heap alike.
TEST(CalendarTimers, BudgetTripMidBucketThenResume) {
  const auto g = gossip_graph();
  const auto whole = gossip_run(g, false, [](sim::Runtime& rt) {
    EXPECT_TRUE(rt.run().quiescent);
  });
  for (const std::uint64_t budget : {1U, 2U, 3U, 5U, 7U, 11U, 40U}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    const auto chunked = [budget](sim::Runtime& rt) {
      int trips = 0;
      while (!rt.run(budget).quiescent) ++trips;
      EXPECT_GT(trips, 0);
    };
    expect_same_trace(gossip_run(g, false, chunked), whole);
    expect_same_trace(gossip_run(g, true, chunked), whole);
  }
}

// The gossip run ends on the silent timer at 40, long after the last
// delivery, so with_node sends at completion_time + 1 — a step behind the
// timer that fired last.  Its first send is a unicast from the idle runtime,
// traced after its copy is queued: queue_depth counts pending deliveries
// after the event, on the plain and the fault-hook send paths alike.
TEST(CalendarTimers, WithNodeAfterARunEndingInATimer) {
  const auto g = gossip_graph();
  const auto drive = [](sim::Runtime& rt) {
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
  };
  const auto calendar = gossip_run(g, false, drive);
  const auto heap = gossip_run(g, true, drive);
  expect_same_trace(calendar, heap);
  for (const TracedRun* run : {&calendar, &heap}) {
    const auto unicast = std::find_if(
        run->events.begin(), run->events.end(), [](const obs::TraceEvent& e) {
          return e.kind == obs::TraceEvent::Kind::kSend && e.dst == 6;
        });
    ASSERT_NE(unicast, run->events.end());
    EXPECT_EQ(unicast->queue_depth, 1u);
  }
}

// A budget that trips where the calendar has just stepped: the next bucket
// is already current, so with_node's sends (at completion_time + 1) are
// due on the current step and must sort after its deliveries.  Budgets
// that trip mid-bucket take the ordinary next-step path.
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
  const auto path = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  for (const std::uint64_t budget : {1U, 2U, 3U, 4U, 5U, 6U}) {
    SCOPED_TRACE(::testing::Message() << "budget=" << budget);
    const auto drive = [budget](sim::Runtime& rt) {
      EXPECT_FALSE(rt.run(budget).quiescent);
      rt.with_node(3, [](sim::Context& ctx, sim::ProtocolNode&) {
        ctx.broadcast(1, {2});
      });
      EXPECT_TRUE(rt.run().quiescent);
    };
    expect_same_trace(gossip_run<Relay>(path, false, drive),
                      gossip_run<Relay>(path, true, drive));
  }
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
  // Flat: pool-deque blocks, calendar-bucket doublings, the per-type vector —
  // all amortized, orders of magnitude below the 1024 deliveries.
  EXPECT_LT(flat_allocs, 100u);
  // Reference map: >= one node allocation per pending delivery.
  EXPECT_GT(map_allocs, 1000u);
}

}  // namespace
