// Clusterhead routing over the Algorithm II spanner (paper, Section 4.2).
// The router answers next-hop and distance queries by bounded overlay BFS;
// a dense per-head table oracle (the stored tables of the paper's scheme)
// checks those answers for every head pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "facade/build.h"
#include "graph/bfs.h"
#include "routing/clusterhead_routing.h"
#include "service/engine.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {
namespace {

constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;

// Dense oracle: the overlay rebuilt from the dominator lists, then one BFS
// per head and a parent-chain walk per pair, filling h x h next-hop and
// distance tables.
struct DenseTables {
  std::size_t h = 0;
  std::vector<std::vector<std::uint32_t>> rows;  // insertion order
  std::vector<std::uint32_t> next;               // next[a * h + b]
  std::vector<std::uint32_t> dist;               // dist[a * h + b]
};

DenseTables dense_tables(const ClusterheadRouter& router,
                         const core::DominatorLists& lists) {
  DenseTables t;
  const auto heads = router.heads();
  t.h = heads.size();
  t.rows.assign(t.h, {});
  for (std::uint32_t a = 0; a < t.h; ++a) {
    auto& row = t.rows[a];
    const auto add = [&](NodeId b) {
      const std::uint32_t to = router.head_index(b);
      if (std::find(row.begin(), row.end(), to) == row.end()) {
        row.push_back(to);
      }
    };
    for (const core::TwoHopEntry& e : lists.two_hop[heads[a]]) add(e.dom);
    for (const core::ThreeHopEntry& e : lists.three_hop[heads[a]]) {
      add(e.dom);
    }
  }
  t.next.assign(t.h * t.h, kNoHead);
  t.dist.assign(t.h * t.h, kNoHead);
  std::vector<std::uint32_t> parent(t.h);
  for (std::uint32_t src = 0; src < t.h; ++src) {
    std::fill(parent.begin(), parent.end(), kNoHead);
    parent[src] = src;
    t.dist[src * t.h + src] = 0;
    std::queue<std::uint32_t> frontier;
    frontier.push(src);
    while (!frontier.empty()) {
      const std::uint32_t a = frontier.front();
      frontier.pop();
      for (const std::uint32_t b : t.rows[a]) {
        if (parent[b] != kNoHead) continue;
        parent[b] = a;
        t.dist[src * t.h + b] = t.dist[src * t.h + a] + 1;
        frontier.push(b);
      }
    }
    for (std::uint32_t b = 0; b < t.h; ++b) {
      if (b == src || parent[b] == kNoHead) continue;
      std::uint32_t step = b;
      while (parent[step] != src) step = parent[step];
      t.next[src * t.h + b] = step;
    }
  }
  return t;
}

// Every head pair: next_clusterhead and overlay_distance equal the dense
// tables, and the router's overlay rows equal the oracle's.
void expect_matches_dense_oracle(const ClusterheadRouter& router,
                                 const core::DominatorLists& lists) {
  const DenseTables t = dense_tables(router, lists);
  const auto heads = router.heads();
  for (std::uint32_t a = 0; a < t.h; ++a) {
    const auto row = router.overlay_row(a);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), t.rows[a].begin(),
                           t.rows[a].end()))
        << "row " << a;
    for (std::uint32_t b = 0; b < t.h; ++b) {
      const std::uint32_t step = t.next[a * t.h + b];
      const NodeId want = a == b                ? heads[a]
                          : step == kNoHead     ? kInvalidNode
                                                : heads[step];
      ASSERT_EQ(router.next_clusterhead(heads[a], heads[b]), want)
          << a << "->" << b;
      ASSERT_EQ(router.overlay_distance(heads[a], heads[b]),
                t.dist[a * t.h + b])
          << a << "->" << b;
    }
  }
}

// Every overlay edge has its reverse.
void expect_symmetric_overlay(const ClusterheadRouter& router) {
  for (std::uint32_t a = 0; a < router.clusterhead_count(); ++a) {
    for (const std::uint32_t b : router.overlay_row(a)) {
      const auto back = router.overlay_row(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << a << "->" << b;
    }
  }
}

TEST(Routing, AdjacentPairsUseDirectEdge) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(0, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1}));
}

TEST(Routing, SelfRouteIsTrivial) {
  const auto g = graph::from_edges(2, {{0, 1}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(1, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Routing, PathGraphEndToEnd) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(1, 4);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path.front(), 1u);
  EXPECT_EQ(r.path.back(), 4u);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(r.path[i], r.path[i + 1]));
  }
}

TEST(Routing, ClusterheadAssignment) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto out = core::algorithm2(g);  // MIS {0, 2, 4}
  const ClusterheadRouter router(g, out);
  EXPECT_EQ(router.clusterhead(0), 0u);
  EXPECT_EQ(router.clusterhead(1), 0u);  // lowest 1-hop dominator
  EXPECT_EQ(router.clusterhead(3), 2u);
  EXPECT_EQ(router.clusterhead_count(), 3u);
}

class RoutingSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(RoutingSweep, AllPairsDeliveredOverValidEdges) {
  const auto [degree, seed] = GetParam();
  const auto inst = testing::connected_udg(150, degree, seed);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  std::vector<bool> dom_mask(inst.g.node_count(), false);
  for (NodeId d : out.result.dominators) dom_mask[d] = true;

  for (NodeId src = 0; src < inst.g.node_count(); src += 7) {
    const auto bfs = graph::bfs_distances(inst.g, src);
    for (NodeId dst = 0; dst < inst.g.node_count(); dst += 5) {
      const auto r = router.route(src, dst);
      ASSERT_TRUE(r.delivered) << src << "->" << dst;
      ASSERT_FALSE(r.path.empty());
      EXPECT_EQ(r.path.front(), src);
      EXPECT_EQ(r.path.back(), dst);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        const NodeId a = r.path[i];
        const NodeId b = r.path[i + 1];
        ASSERT_TRUE(inst.g.has_edge(a, b));
        // Every non-direct hop is a black (spanner) edge.
        if (r.path.size() > 2) {
          EXPECT_TRUE(dom_mask[a] || dom_mask[b]);
        }
      }
      // Stretch bound: the clusterhead route detours at most two hops at
      // each end beyond the Theorem 11 spanner path.
      if (src != dst && bfs[dst] != kUnreachable) {
        EXPECT_LE(r.hops(), 3 * static_cast<std::size_t>(bfs[dst]) + 10);
      }
    }
  }
}

TEST_P(RoutingSweep, MatchesDenseTableOracleOnAllHeadPairs) {
  const auto [degree, seed] = GetParam();
  const auto inst = testing::connected_udg(150, degree, seed);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  expect_matches_dense_oracle(router, out.lists);
}

INSTANTIATE_TEST_SUITE_P(
    DegreeSeed, RoutingSweep,
    ::testing::Combine(::testing::Values(7.0, 12.0),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Routing, TableDiagnostics) {
  const auto inst = testing::connected_udg(120, 10.0, 2);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  EXPECT_EQ(router.clusterhead_count(), out.result.mis_dominators.size());
  EXPECT_EQ(router.table_entries(),
            router.clusterhead_count() * router.clusterhead_count());
  EXPECT_GT(router.overlay_edge_count(), 0u);
}

TEST(Routing, BytesScaleWithNodesAndOverlayEdges) {
  const auto inst = testing::connected_udg(200, 12.0, 4);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  const std::size_t n = inst.g.node_count();
  const std::size_t h = router.clusterhead_count();
  const std::size_t edges = router.overlay_edge_count();
  // clusterhead + index per node, heads + offsets per head, target + leg
  // per overlay edge: nothing per head pair.
  EXPECT_GE(router.bytes(), 8 * n + 4 * h + 12 * edges);
  EXPECT_LE(router.bytes(), 8 * n + 8 * h + 12 * edges + 64);
}

// --- Overlay symmetry ------------------------------------------------------

TEST(RoutingOverlay, SymmetricOnCentralProtocolAndResilientViews) {
  const auto inst = testing::connected_udg(200, 10.0, 6);
  core::BuildOptions central;
  core::BuildOptions protocol;
  protocol.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  core::BuildOptions resilient;
  resilient.resilience = core::ResilienceSpec{2, 2};
  for (const core::BuildOptions& options : {central, protocol, resilient}) {
    const core::BuildReport report = core::build(inst.g, options);
    std::unique_ptr<ClusterheadRouter> router;
    ASSERT_NO_THROW(router = std::make_unique<ClusterheadRouter>(
                        inst.g, report.algorithm2_view()))
        << core::to_string(options.algorithm);
    expect_symmetric_overlay(*router);
    expect_matches_dense_oracle(*router, report.lists);
  }
}

TEST(RoutingOverlay, OneSidedListEntryRaisesTypedError) {
  const auto inst = testing::connected_udg(150, 10.0, 3);
  auto out = core::algorithm2(inst.g);
  // Drop one 2HopDomList entry at a single end of the pair.
  const auto it = std::find_if(
      out.result.mis_dominators.begin(), out.result.mis_dominators.end(),
      [&](NodeId a) { return !out.lists.two_hop[a].empty(); });
  ASSERT_NE(it, out.result.mis_dominators.end());
  const NodeId a = *it;
  const NodeId b = out.lists.two_hop[a].front().dom;
  out.lists.two_hop[a].erase(out.lists.two_hop[a].begin());
  try {
    const ClusterheadRouter router(inst.g, out);
    FAIL() << "asymmetric overlay accepted";
  } catch (const AsymmetricOverlayError& e) {
    EXPECT_EQ(e.from_head(), b);  // b still lists a, a no longer lists b
    EXPECT_EQ(e.to_head(), a);
  }
}

// --- Disconnected overlay --------------------------------------------------

TEST(RoutingOverlay, TwoComponentsAreUnreachableNotLost) {
  // Two 7-node paths: the protocol build takes a disconnected deployment
  // and yields one overlay component per path.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u + 1 < 7; ++u) {
    edges.emplace_back(u, u + 1);
    edges.emplace_back(u + 7, u + 8);
  }
  const auto g = graph::from_edges(14, edges);
  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  const core::BuildReport report = core::build(g, options);
  const ClusterheadRouter router(g, report.algorithm2_view());
  expect_matches_dense_oracle(router, report.lists);

  const NodeId left = router.clusterhead(0);
  const NodeId right = router.clusterhead(13);
  EXPECT_EQ(router.next_clusterhead(left, right), kInvalidNode);
  EXPECT_EQ(router.overlay_distance(left, right), kNoHead);
  EXPECT_EQ(router.overlay_distance(right, left), kNoHead);
  const Route r = router.route(1, 13);
  EXPECT_FALSE(r.delivered);
  EXPECT_TRUE(router.route(1, 6).delivered);

  // A service advertised only in the right component: requests from the
  // left find no provider, they are not lost.
  service::ServiceRegistry registry(14);
  const service::ServiceId svc = registry.intern("right-only");
  registry.advertise(13, svc);
  const service::ServingEngine engine(g, report.algorithm2_view(), registry);
  for (NodeId src = 0; src < 7; ++src) {
    const service::Outcome o = engine.serve({src, svc}, src);
    EXPECT_EQ(o.resolution, service::Resolution::kNoProvider) << src;
    EXPECT_EQ(o.delivered, 0u);
  }
  EXPECT_EQ(engine.serve({7, svc}, 7).resolution,
            service::Resolution::kInterDomain);
}

}  // namespace
}  // namespace wcds::routing
