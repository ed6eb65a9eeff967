// Discrete-event runtime semantics: delivery order, cost accounting,
// quiescence.
#include <gtest/gtest.h>

#include <memory>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace wcds::sim {
namespace {

// Flood protocol: node 0 broadcasts PING at start; everyone re-broadcasts the
// first PING they hear.  Tests broadcast fan-out, time = eccentricity.
class FloodNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) {
      seen_ = true;
      ctx.broadcast(1);
    }
  }
  void on_receive(Context& ctx, const Message& msg) override {
    last_from_ = msg.src;
    ++received_;
    if (!seen_) {
      seen_ = true;
      hop_ = static_cast<std::uint32_t>(ctx.now());
      ctx.broadcast(1);
    }
  }
  bool seen_ = false;
  std::uint32_t hop_ = 0;
  NodeId last_from_ = kInvalidNode;
  int received_ = 0;
};

TEST(Runtime, FloodReachesEveryoneInBfsTime) {
  const auto g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.transmissions, 6u);  // everyone broadcasts exactly once
  for (NodeId u = 0; u < 6; ++u) {
    const auto& node = static_cast<const FloodNode&>(rt.node(u));
    EXPECT_TRUE(node.seen_);
    if (u > 0) {
      EXPECT_EQ(node.hop_, u);  // path graph: hop = id
    }
  }
  EXPECT_EQ(stats.completion_time, 6u);  // node 5's re-broadcast dies at t=6
}

TEST(Runtime, BroadcastCountsOneTransmissionManyDeliveries) {
  const auto g = graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  const auto stats = rt.run();
  // 0 broadcasts once (3 deliveries); leaves each broadcast once (1 delivery
  // to 0 each).
  EXPECT_EQ(stats.transmissions, 4u);
  EXPECT_EQ(stats.deliveries, 6u);
}

// Unicast protocol: node 0 pings its largest neighbor, which pongs back.
class PingPongNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0 && !ctx.neighbors().empty()) {
      ctx.unicast(ctx.neighbors().back(), 1, {42});
    }
  }
  void on_receive(Context& ctx, const Message& msg) override {
    payload_seen_ = msg.payload.empty() ? 0 : msg.payload[0];
    if (msg.type == 1) ctx.unicast(msg.src, 2, {msg.payload[0] + 1});
  }
  std::uint32_t payload_seen_ = 0;
};

TEST(Runtime, UnicastRoundTripAndPayload) {
  const auto g = graph::from_edges(3, {{0, 1}, {0, 2}});
  Runtime rt(g, [](NodeId) { return std::make_unique<PingPongNode>(); });
  const auto stats = rt.run();
  EXPECT_EQ(stats.transmissions, 2u);
  EXPECT_EQ(stats.completion_time, 2u);
  EXPECT_EQ(static_cast<const PingPongNode&>(rt.node(2)).payload_seen_, 42u);
  EXPECT_EQ(static_cast<const PingPongNode&>(rt.node(0)).payload_seen_, 43u);
  EXPECT_EQ(stats.per_type.at(1), 1u);
  EXPECT_EQ(stats.per_type.at(2), 1u);
}

class MisbehavingNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.unicast(2, 1);  // 2 is NOT a neighbor of 0
  }
  void on_receive(Context&, const Message&) override {}
};

TEST(Runtime, UnicastToNonNeighborThrows) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  Runtime rt(g, [](NodeId) { return std::make_unique<MisbehavingNode>(); });
  EXPECT_THROW(rt.run(), std::logic_error);
}

// Chatter protocol that never quiesces: every message triggers another.
class ChatterNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.broadcast(1);
  }
  void on_receive(Context& ctx, const Message&) override { ctx.broadcast(1); }
};

TEST(Runtime, EventBudgetStopsRunaway) {
  const auto g = graph::from_edges(2, {{0, 1}});
  Runtime rt(g, [](NodeId) { return std::make_unique<ChatterNode>(); });
  const auto stats = rt.run(/*max_events=*/1000);
  EXPECT_FALSE(stats.quiescent);
}

// Every node broadcasts once at start; counts how often on_start fired.
class StartCountingNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    ++starts;
    ctx.broadcast(1);
  }
  void on_receive(Context&, const Message&) override {}
  int starts = 0;
};

TEST(Runtime, SecondRunResumesWithoutRestarting) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  obs::Recorder rec;
  Runtime rt(g, [](NodeId) { return std::make_unique<StartCountingNode>(); },
             DelayModel::unit(), &rec);
  const RunStats first = rt.run();
  EXPECT_EQ(first.transmissions, 3u);
  EXPECT_EQ(first.deliveries, 4u);
  rt.with_node(1, [](Context& ctx, ProtocolNode&) { ctx.broadcast(1); });
  const RunStats second = rt.run();
  for (NodeId u = 0; u < 3; ++u) {
    EXPECT_EQ(static_cast<const StartCountingNode&>(rt.node(u)).starts, 1);
  }
  EXPECT_TRUE(second.quiescent);
  EXPECT_EQ(second.transmissions, 4u);
  EXPECT_EQ(second.deliveries, 6u);
  EXPECT_EQ(second.completion_time, first.completion_time + 1);
  EXPECT_EQ(rt.stats(), second);
  // The recorder sees the cumulative count, not first + second.
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.counters.at("sim/transmissions"), 4u);
  EXPECT_EQ(snap.counters.at("sim/deliveries"), 6u);
  EXPECT_EQ(snap.counters.at("sim/msg_type/1"), 4u);
}

TEST(Runtime, DeterministicAcrossRuns) {
  const auto inst = testing::connected_udg(120, 8.0, 3);
  const auto run_once = [&]() {
    Runtime rt(inst.g, [](NodeId) { return std::make_unique<FloodNode>(); });
    auto stats = rt.run();
    std::vector<NodeId> froms;
    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      froms.push_back(static_cast<const FloodNode&>(rt.node(u)).last_from_);
    }
    return std::pair{stats.transmissions, froms};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Runtime, NullFactoryRejected) {
  const auto g = graph::from_edges(2, {{0, 1}});
  EXPECT_THROW(Runtime(g, [](NodeId) -> std::unique_ptr<ProtocolNode> {
                 return nullptr;
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcds::sim
