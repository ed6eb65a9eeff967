// Topology changes on sim::Runtime + distributed self-stabilizing MIS
// maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <span>
#include <stdexcept>
#include <vector>

#include "fault/plan.h"
#include "geom/workload.h"
#include "mis/mis.h"
#include "protocols/mis_maintenance_protocol.h"
#include "test_util.h"
#include "udg/udg.h"

namespace wcds::protocols {
namespace {

// --- sim::Runtime topology changes -----------------------------------------

// Logs every link event as (node, neighbor, up) into a log shared by all
// nodes, so tests can check both endpoints and the firing order.
struct LinkEvent {
  NodeId node;
  NodeId neighbor;
  bool up;

  friend bool operator==(const LinkEvent&, const LinkEvent&) = default;
};

class LinkLogger final : public sim::ProtocolNode {
 public:
  explicit LinkLogger(std::vector<LinkEvent>& log) : log_(log) {}
  void on_start(sim::Context&) override {}
  void on_receive(sim::Context&, const sim::Message&) override {}
  void on_link_up(sim::Context& ctx, NodeId neighbor) override {
    log_.push_back({ctx.self(), neighbor, true});
  }
  void on_link_down(sim::Context& ctx, NodeId neighbor) override {
    log_.push_back({ctx.self(), neighbor, false});
  }

 private:
  std::vector<LinkEvent>& log_;
};

TEST(RuntimeTopology, LinkEventsFireOnBothEndpoints) {
  const auto before = graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto after = graph::from_edges(4, {{1, 2}, {1, 3}, {2, 3}});
  std::vector<LinkEvent> log;
  sim::Runtime rt(before,
                  [&](NodeId) { return std::make_unique<LinkLogger>(log); });
  ASSERT_TRUE(rt.run().quiescent);
  rt.apply_topology(after);
  // Downs before ups; each changed edge (u < v) ascending, u then v.
  const std::vector<LinkEvent> expected = {
      {0, 1, false}, {1, 0, false}, {1, 2, true},
      {2, 1, true},  {1, 3, true},  {3, 1, true}};
  EXPECT_EQ(log, expected);
  EXPECT_TRUE(rt.topology().has_edge(1, 2));
  EXPECT_FALSE(rt.topology().has_edge(0, 1));
  ASSERT_TRUE(rt.run().quiescent);
}

// Node 2 streams sequence numbers to its neighbors, once at start and once
// more after a topology change; receivers check each link stays FIFO.
class Sequencer final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override {
    if (ctx.self() == 2) stream(ctx);
  }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    if (received == 0) first_at = ctx.now();
    in_order = in_order && (received == 0 || msg.payload[0] > last);
    last = msg.payload[0];
    ++received;
  }
  void stream(sim::Context& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) ctx.broadcast(1, {next_++});
  }
  bool in_order = true;
  std::uint32_t last = 0;
  std::uint32_t received = 0;
  sim::SimTime first_at = 0;

 private:
  std::uint32_t next_ = 0;
};

// Turns node 1's radio off while `deaf` is set and remembers the latest copy
// it swallowed; the copies still advanced their link's FIFO clock.
class DeafNodeOne final : public sim::FaultHook {
 public:
  bool send_blocked(NodeId, sim::SimTime) override { return false; }
  bool drop_copy(std::size_t) override { return false; }
  bool duplicate_copy(std::size_t) override { return false; }
  sim::SimTime extra_delay() override { return 0; }
  bool receive_blocked(NodeId recipient, sim::SimTime at) override {
    if (!deaf || recipient != 1) return false;
    last_swallowed = std::max(last_swallowed, at);
    return true;
  }
  bool deaf = true;
  sim::SimTime last_swallowed = 0;
};

// Regression: without per-link FIFO, reordered COLOR broadcasts leave stale
// state behind (a node's final color announcement overtaken by an earlier
// one).  The surviving link 2 -> 1 moves to a new CSR slot here, and its
// clock must travel with it: the second stream may not overtake the first,
// even though node 1 missed the first and so nothing was delivered yet.
TEST(RuntimeTopology, FifoHoldsOnSurvivingLinkUnderAsync) {
  const auto before = graph::from_edges(3, {{1, 2}});
  const auto after = graph::from_edges(3, {{0, 2}, {1, 2}});
  ASSERT_NE(before.edge_slot(2, 1), after.edge_slot(2, 1));
  DeafNodeOne hook;
  sim::Runtime rt(before, [](NodeId) { return std::make_unique<Sequencer>(); },
                  sim::DelayModel::uniform(1, 25, 7), nullptr, &hook);
  ASSERT_TRUE(rt.run().quiescent);
  ASSERT_GT(hook.last_swallowed, 25u);
  hook.deaf = false;
  rt.apply_topology(after);
  rt.with_node(2, [](sim::Context& ctx, sim::ProtocolNode& node) {
    static_cast<Sequencer&>(node).stream(ctx);
  });
  ASSERT_TRUE(rt.run().quiescent);
  const auto& survivor = static_cast<const Sequencer&>(rt.node(1));
  EXPECT_TRUE(survivor.in_order);
  EXPECT_EQ(survivor.received, 20u);
  EXPECT_GT(survivor.first_at, hook.last_swallowed);
  const auto& newcomer = static_cast<const Sequencer&>(rt.node(0));
  EXPECT_TRUE(newcomer.in_order);
  EXPECT_EQ(newcomer.received, 20u);
}

TEST(RuntimeTopology, ApplyWithDeliveriesPendingThrows) {
  const auto g = graph::from_edges(3, {{1, 2}});
  sim::Runtime rt(g, [](NodeId) { return std::make_unique<Sequencer>(); });
  ASSERT_TRUE(rt.run().quiescent);
  rt.with_node(2, [](sim::Context& ctx, sim::ProtocolNode& node) {
    static_cast<Sequencer&>(node).stream(ctx);
  });
  EXPECT_THROW(rt.apply_topology(graph::from_edges(3, {{0, 2}})),
               std::logic_error);
}

TEST(RuntimeTopology, NodeCountMismatchThrows) {
  const auto g = graph::from_edges(3, {{1, 2}});
  sim::Runtime rt(g, [](NodeId) { return std::make_unique<Sequencer>(); });
  ASSERT_TRUE(rt.run().quiescent);
  EXPECT_THROW(rt.apply_topology(graph::from_edges(4, {{1, 2}})),
               std::invalid_argument);
}

// --- MIS maintenance ---------------------------------------------------------

void expect_valid_mis(const graph::Graph& g, const std::vector<bool>& mask,
                      const char* context) {
  EXPECT_TRUE(mis::is_maximal_independent_set(g, mask)) << context;
}

TEST(MisMaintenance, InitialStabilizationIsAnMis) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = testing::connected_udg(150, 9.0, seed);
    MisMaintenanceSession session(inst.g);
    ASSERT_TRUE(session.stabilize());
    expect_valid_mis(inst.g, session.mis_mask(), "initial");
  }
}

TEST(MisMaintenance, SingleNodeAndEdgeless) {
  graph::GraphBuilder b1(1);
  MisMaintenanceSession one(std::move(b1).build());
  ASSERT_TRUE(one.stabilize());
  EXPECT_TRUE(one.mis_mask()[0]);

  graph::GraphBuilder b3(3);  // three isolated nodes
  MisMaintenanceSession iso(std::move(b3).build());
  ASSERT_TRUE(iso.stabilize());
  const auto mask = iso.mis_mask();
  EXPECT_TRUE(mask[0] && mask[1] && mask[2]);
}

TEST(MisMaintenance, LinkUpConflictResolvesTowardLowerId) {
  // Two components, each with its own dominator; join them.
  const auto before = graph::from_edges(4, {{0, 1}, {2, 3}});
  MisMaintenanceSession session(before);
  ASSERT_TRUE(session.stabilize());
  auto mask = session.mis_mask();
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[2]);
  // Join the dominators directly: 0-2 edge appears.
  const auto after = graph::from_edges(4, {{0, 1}, {2, 3}, {0, 2}});
  ASSERT_TRUE(session.update(after));
  mask = session.mis_mask();
  expect_valid_mis(after, mask, "after join");
  EXPECT_TRUE(mask[0]);   // lower ID keeps the role
  EXPECT_FALSE(mask[2]);  // higher ID yielded
  EXPECT_TRUE(mask[3]);   // 3 lost its dominator and self-promoted
}

TEST(MisMaintenance, LinkDownOrphanPromotes) {
  const auto before = graph::from_edges(3, {{0, 1}, {1, 2}});
  MisMaintenanceSession session(before);
  ASSERT_TRUE(session.stabilize());
  EXPECT_TRUE(session.mis_mask()[0]);
  // Cut 1-2: node 2 is alone and must become its own dominator.
  const auto after = graph::from_edges(3, {{0, 1}});
  ASSERT_TRUE(session.update(after));
  const auto mask = session.mis_mask();
  expect_valid_mis(after, mask, "after cut");
  EXPECT_TRUE(mask[2]);
}

TEST(MisMaintenance, MobilityChurnKeepsMisValid) {
  const std::uint32_t n = 120;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 3);
  MisMaintenanceSession session(udg::build_udg(points));
  ASSERT_TRUE(session.stabilize());
  geom::Xoshiro256ss rng(99);
  for (int step = 0; step < 25; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-1.0, 1.0);
    points[u].y += rng.next_double(-1.0, 1.0);
    const auto g = udg::build_udg(points);
    ASSERT_TRUE(session.update(g)) << "step " << step;
    expect_valid_mis(g, session.mis_mask(), "churn step");
  }
}

// Golden pin for the perfect-radio churn above: per update, the cumulative
// message cost, the simulated clock and an FNV-1a digest of the MIS.  Any
// change to the runtime's delivery order, delay draws or link bookkeeping
// shows up here as a changed constant.
struct ChurnPin {
  std::uint64_t transmissions;
  std::uint64_t deliveries;
  sim::SimTime completion_time;
  std::uint64_t mask_hash;

  friend bool operator==(const ChurnPin&, const ChurnPin&) = default;
};

std::ostream& operator<<(std::ostream& os, const ChurnPin& pin) {
  return os << "{" << pin.transmissions << ", " << pin.deliveries << ", "
            << pin.completion_time << ", 0x" << std::hex << pin.mask_hash
            << std::dec << "}";
}

std::uint64_t fnv1a(const std::vector<bool>& mask) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const bool bit : mask) {
    h ^= bit ? 1U : 0U;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<ChurnPin> churn_pins(const sim::DelayModel& delays) {
  const std::uint32_t n = 120;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 3);
  MisMaintenanceSession session(udg::build_udg(points), delays);
  EXPECT_TRUE(session.stabilize());
  geom::Xoshiro256ss rng(99);
  std::vector<ChurnPin> pins;
  for (int step = 0; step < 25; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-1.0, 1.0);
    points[u].y += rng.next_double(-1.0, 1.0);
    EXPECT_TRUE(session.update(udg::build_udg(points))) << "step " << step;
    const auto& stats = session.stats();
    pins.push_back({stats.transmissions, stats.deliveries,
                    stats.completion_time, fnv1a(session.mis_mask())});
  }
  return pins;
}

// Recorded on the perfect radio; unit and async delays send the same
// messages, only the clock differs.
constexpr ChurnPin kUnitChurnPins[] = {
    {244, 2068, 7, 0xb2152384785a20bd},
    {250, 2074, 8, 0xb2152384785a20bd},
    {264, 2104, 10, 0xb2152384785a20bd},
    {264, 2104, 10, 0xb2152384785a20bd},
    {266, 2106, 11, 0xb2152384785a20bd},
    {283, 2154, 13, 0x18e121afb0a17f71},
    {283, 2154, 13, 0x18e121afb0a17f71},
    {301, 2172, 14, 0x18e121afb0a17f71},
    {309, 2180, 15, 0x18e121afb0a17f71},
    {317, 2198, 17, 0x18e121afb0a17f71},
    {317, 2198, 17, 0x18e121afb0a17f71},
    {329, 2210, 18, 0x18e121afb0a17f71},
    {352, 2247, 20, 0x1488475152d73094},
    {368, 2263, 21, 0x1488475152d73094},
    {374, 2269, 22, 0x1488475152d73094},
    {399, 2332, 24, 0x1ce34262be56b1d4},
    {407, 2350, 26, 0x3cca93c37e2a6d7},
    {416, 2368, 28, 0x6e1059e7fca18223},
    {416, 2368, 28, 0x6e1059e7fca18223},
    {432, 2384, 29, 0x6e1059e7fca18223},
    {444, 2396, 30, 0x6e1059e7fca18223},
    {452, 2404, 31, 0x6e1059e7fca18223},
    {468, 2446, 33, 0x6e1059e7fca18223},
    {470, 2448, 34, 0x6e1059e7fca18223},
    {476, 2454, 35, 0x6e1059e7fca18223},
};

constexpr ChurnPin kAsyncChurnPins[] = {
    {244, 2068, 28, 0xb2152384785a20bd},
    {250, 2074, 31, 0xb2152384785a20bd},
    {264, 2104, 37, 0xb2152384785a20bd},
    {264, 2104, 37, 0xb2152384785a20bd},
    {266, 2106, 41, 0xb2152384785a20bd},
    {283, 2154, 50, 0x18e121afb0a17f71},
    {283, 2154, 50, 0x18e121afb0a17f71},
    {301, 2172, 55, 0x18e121afb0a17f71},
    {309, 2180, 60, 0x18e121afb0a17f71},
    {317, 2198, 68, 0x18e121afb0a17f71},
    {317, 2198, 68, 0x18e121afb0a17f71},
    {329, 2210, 73, 0x18e121afb0a17f71},
    {352, 2247, 79, 0x1488475152d73094},
    {368, 2263, 84, 0x1488475152d73094},
    {374, 2269, 88, 0x1488475152d73094},
    {399, 2332, 98, 0x1ce34262be56b1d4},
    {407, 2350, 105, 0x3cca93c37e2a6d7},
    {416, 2368, 113, 0x6e1059e7fca18223},
    {416, 2368, 113, 0x6e1059e7fca18223},
    {432, 2384, 118, 0x6e1059e7fca18223},
    {444, 2396, 123, 0x6e1059e7fca18223},
    {452, 2404, 128, 0x6e1059e7fca18223},
    {468, 2446, 137, 0x6e1059e7fca18223},
    {470, 2448, 142, 0x6e1059e7fca18223},
    {476, 2454, 147, 0x6e1059e7fca18223},
};

void expect_pins(const std::vector<ChurnPin>& actual,
                 std::span<const ChurnPin> expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t step = 0; step < actual.size(); ++step) {
    EXPECT_EQ(actual[step], expected[step]) << "step " << step;
  }
}

TEST(MisMaintenanceGolden, UnitDelayChurnIsPinned) {
  expect_pins(churn_pins(sim::DelayModel::unit()), kUnitChurnPins);
}

TEST(MisMaintenanceGolden, AsyncDelayChurnIsPinned) {
  expect_pins(churn_pins(sim::DelayModel::uniform(1, 5, 17)), kAsyncChurnPins);
}

TEST(MisMaintenance, ChurnUnderMessageLossRecoversViaWatchdog) {
  // Topology churn while every message copy independently rolls a 20% loss
  // (from the initial stabilization on).
  // Lost COLOR announcements can strand stale knowledge, so plain
  // stabilization no longer guarantees a valid MIS — the liveness watchdog
  // (re-announce everywhere, restabilize, repeat) must close the gaps.
  const std::uint32_t n = 100;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 5);
  const auto lossy = fault::Plan::lossy(0.2, 77);
  MisMaintenanceSession session(udg::build_udg(points),
                                sim::DelayModel::unit(), &lossy);
  ASSERT_TRUE(session.stabilize());
  geom::Xoshiro256ss rng(42);
  for (int step = 0; step < 15; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-1.0, 1.0);
    points[u].y += rng.next_double(-1.0, 1.0);
    const auto g = udg::build_udg(points);
    ASSERT_TRUE(session.update(g)) << "step " << step;
    ASSERT_TRUE(session.watchdog()) << "step " << step;
    expect_valid_mis(g, session.mis_mask(), "lossy churn step");
  }
}

TEST(MisMaintenance, CrashRecoverUnderLossConverges) {
  // Crash a node (all its links vanish), then bring it back — both under
  // 15% message loss.  The MIS must be valid over the survivor topology
  // while the node is down and again after it recovers.
  const std::uint32_t n = 90;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 8);
  const auto lossy = fault::Plan::lossy(0.15, 31);
  MisMaintenanceSession session(udg::build_udg(points),
                                sim::DelayModel::unit(), &lossy);
  ASSERT_TRUE(session.stabilize());
  for (const NodeId victim : {NodeId{7}, NodeId{42}}) {
    const geom::Point home = points[victim];
    points[victim] = {1e6 + victim, 1e6};  // out of everyone's range
    const auto down_graph = udg::build_udg(points);
    ASSERT_TRUE(session.update(down_graph));
    ASSERT_TRUE(session.watchdog()) << "victim " << victim << " down";
    expect_valid_mis(down_graph, session.mis_mask(), "victim down");
    points[victim] = home;
    const auto up_graph = udg::build_udg(points);
    ASSERT_TRUE(session.update(up_graph));
    ASSERT_TRUE(session.watchdog()) << "victim " << victim << " recovered";
    expect_valid_mis(up_graph, session.mis_mask(), "victim recovered");
  }
}

TEST(MisMaintenance, WorksUnderAsyncDelays) {
  const auto inst = testing::connected_udg(100, 9.0, 7);
  MisMaintenanceSession session(inst.g, sim::DelayModel::uniform(1, 5, 17));
  ASSERT_TRUE(session.stabilize());
  expect_valid_mis(inst.g, session.mis_mask(), "async initial");
}

TEST(MisMaintenance, RejectsPlanWithLinkOverrides) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  auto plan = fault::Plan::lossy(0.1, 3);
  plan.link_overrides.push_back({g.edge_slot(0, 1), 0.5, 0.0});
  EXPECT_THROW(MisMaintenanceSession(g, sim::DelayModel::unit(), &plan),
               std::invalid_argument);
}

TEST(MisMaintenance, RepeatedUpdatesStayQuiescent) {
  // Applying the same topology twice must cost nothing the second time.
  const auto inst = testing::connected_udg(80, 9.0, 11);
  MisMaintenanceSession session(inst.g);
  ASSERT_TRUE(session.stabilize());
  const auto tx_before = session.stats().transmissions;
  ASSERT_TRUE(session.update(inst.g));
  EXPECT_EQ(session.stats().transmissions, tx_before);
}

}  // namespace
}  // namespace wcds::protocols
