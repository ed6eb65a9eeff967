// Dynamic WCDS maintenance: invariants after every mobility event, locality
// of repairs.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/graph.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "mobility/models.h"
#include "udg/udg.h"

namespace wcds::maintenance {

// The test seam into DynamicWcds (befriended there): its bridge table, one
// row of {partner, via} entries per node.
struct DynamicWcdsTestAccess {
  static auto& rows(DynamicWcds& dyn) { return dyn.bridges_; }
  static const auto& rows(const DynamicWcds& dyn) { return dyn.bridges_; }
};

namespace {

using Access = DynamicWcdsTestAccess;

std::vector<geom::Point> deployment(std::uint32_t n, double degree,
                                    std::uint64_t seed) {
  return geom::uniform_square(n, geom::side_for_expected_degree(n, degree),
                              seed);
}

TEST(DynamicWcds, InitialStateIsValid) {
  DynamicWcds dyn(deployment(200, 10.0, 1));
  const auto audit = dyn.audit();
  EXPECT_TRUE(audit.mis_independent);
  EXPECT_TRUE(audit.mis_maximal);
  EXPECT_TRUE(audit.bridges_complete);
  EXPECT_TRUE(audit.weakly_connected);
  EXPECT_TRUE(audit.ok());
  EXPECT_FALSE(dyn.dominators().empty());
}

TEST(DynamicWcds, RejectsBadIds) {
  DynamicWcds dyn(deployment(10, 6.0, 2));
  EXPECT_THROW(dyn.move_node(10, {0, 0}), std::out_of_range);
  EXPECT_THROW(dyn.deactivate(99), std::out_of_range);
  EXPECT_THROW(dyn.activate(99), std::out_of_range);
}

TEST(DynamicWcds, RejectsNonPositiveRange) {
  EXPECT_THROW(DynamicWcds(deployment(5, 3.0, 1), 0.0), std::invalid_argument);
}

TEST(DynamicWcds, MoveKeepsInvariants) {
  auto pts = deployment(150, 10.0, 3);
  DynamicWcds dyn(pts);
  geom::Xoshiro256ss rng(99);
  const double side = geom::side_for_expected_degree(150, 10.0);
  for (int step = 0; step < 25; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(150));
    const geom::Point target{rng.next_double(0.0, side),
                             rng.next_double(0.0, side)};
    const auto report = dyn.move_node(u, target);
    EXPECT_TRUE(dyn.audit().ok()) << "step " << step;
    EXPECT_GT(report.region_size, 0u);
  }
}

TEST(DynamicWcds, SmallJitterMovesTouchLittle) {
  auto pts = deployment(300, 12.0, 4);
  DynamicWcds dyn(pts);
  geom::Xoshiro256ss rng(7);
  std::size_t total_roles_changed = 0;
  for (int step = 0; step < 20; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(300));
    geom::Point p = dyn.position(u);
    p.x += rng.next_double(-0.2, 0.2);
    p.y += rng.next_double(-0.2, 0.2);
    const auto report = dyn.move_node(u, p);
    total_roles_changed += report.demoted + report.promoted;
    EXPECT_TRUE(dyn.audit().ok());
    // Locality: the repair region is a small fraction of the network.
    EXPECT_LT(report.region_size, 300u);
  }
  // Small jitters rarely change roles at all.
  EXPECT_LT(total_roles_changed, 40u);
}

TEST(DynamicWcds, DeactivateDominatorRepairsCoverage) {
  DynamicWcds dyn(deployment(120, 12.0, 5));
  // Find a dominator and switch it off.
  NodeId dominator = kInvalidNode;
  for (NodeId u = 0; u < 120; ++u) {
    if (dyn.is_mis_dominator(u)) {
      dominator = u;
      break;
    }
  }
  ASSERT_NE(dominator, kInvalidNode);
  const auto report = dyn.deactivate(dominator);
  EXPECT_FALSE(dyn.is_active(dominator));
  EXPECT_FALSE(dyn.is_mis_dominator(dominator));
  EXPECT_GE(report.demoted, 1u);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, DeactivateThenReactivateRoundTrip) {
  DynamicWcds dyn(deployment(100, 10.0, 6));
  const auto before = dyn.dominators();
  (void)dyn.deactivate(7);
  EXPECT_TRUE(dyn.audit().ok());
  (void)dyn.activate(7);
  EXPECT_TRUE(dyn.is_active(7));
  EXPECT_TRUE(dyn.audit().ok());
  (void)before;
}

TEST(DynamicWcds, DoubleDeactivateIsNoop) {
  DynamicWcds dyn(deployment(50, 8.0, 7));
  (void)dyn.deactivate(3);
  const auto report = dyn.deactivate(3);
  EXPECT_EQ(report.region_size, 0u);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, ChurnStress) {
  // Mixed event storm; invariants must hold after every single event.
  DynamicWcds dyn(deployment(180, 11.0, 8));
  geom::Xoshiro256ss rng(12345);
  const double side = geom::side_for_expected_degree(180, 11.0);
  for (int step = 0; step < 60; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(180));
    switch (rng.next_below(3)) {
      case 0:
        (void)dyn.move_node(u, {rng.next_double(0.0, side),
                                rng.next_double(0.0, side)});
        break;
      case 1:
        (void)dyn.deactivate(u);
        break;
      default:
        (void)dyn.activate(u);
        break;
    }
    ASSERT_TRUE(dyn.audit().ok()) << "event " << step << " on node " << u;
  }
}

TEST(DynamicWcds, ChurnWithCrashScheduleStaysAuditClean) {
  // Waves of mobility churn interleaved with crash/recover storms: the
  // combination the fault layer's A6 experiment measures.  Invariants must
  // hold after every wave, and the schedule must report one outcome per
  // victim with non-negative repair timings.
  constexpr std::uint32_t kNodes = 150;
  DynamicWcds dyn(deployment(kNodes, 10.0, 21));
  geom::Xoshiro256ss rng(77);
  const double side = geom::side_for_expected_degree(kNodes, 10.0);
  for (int wave = 0; wave < 5; ++wave) {
    for (int event = 0; event < 8; ++event) {
      const auto u = static_cast<NodeId>(rng.next_below(kNodes));
      (void)dyn.move_node(u, {rng.next_double(0.0, side),
                              rng.next_double(0.0, side)});
    }
    std::vector<NodeId> victims;
    while (victims.size() < 3) {
      const auto v = static_cast<NodeId>(rng.next_below(kNodes));
      if (dyn.is_active(v) &&
          std::find(victims.begin(), victims.end(), v) == victims.end()) {
        victims.push_back(v);
      }
    }
    const auto report = maintenance::run_crash_schedule(dyn, victims);
    ASSERT_EQ(report.outcomes.size(), victims.size()) << "wave " << wave;
    EXPECT_GE(report.total_repair_ms, 0.0);
    ASSERT_TRUE(dyn.audit().ok()) << "wave " << wave;
  }
}

TEST(DynamicWcds, MoveIntoIsolationStillAudits) {
  // A node moved far away becomes its own component; it must become a
  // dominator of itself (maximality) and audits must pass per component.
  DynamicWcds dyn(deployment(80, 10.0, 9));
  (void)dyn.move_node(5, {1e5, 1e5});
  EXPECT_TRUE(dyn.audit().ok());
  EXPECT_TRUE(dyn.is_mis_dominator(5));
}

TEST(DynamicWcds, BridgesStaySoundAcrossEventKinds) {
  // The event path drops only the bridges of MIS nodes near the event; the
  // audit's bridges_sound verdict is what vouches that nothing stale is
  // left behind, and ok() must depend on it.
  DynamicWcds dyn(deployment(200, 10.0, 10));
  geom::Xoshiro256ss rng(11);
  const double side = geom::side_for_expected_degree(200, 10.0);
  for (int step = 0; step < 40; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(200));
    (void)dyn.move_node(u, {rng.next_double(0.0, side),
                            rng.next_double(0.0, side)});
    (void)dyn.deactivate(static_cast<NodeId>(rng.next_below(200)));
    (void)dyn.activate(static_cast<NodeId>(rng.next_below(200)));
    ASSERT_TRUE(dyn.audit().bridges_sound) << "step " << step;
  }
  Audit audit = dyn.audit();
  ASSERT_TRUE(audit.ok());
  audit.bridges_sound = false;
  EXPECT_FALSE(audit.ok());
}

// The via rule as a nested scan over the radio graph: the smallest
// neighbour v of a with a neighbour adjacent to b (the lexicographically
// smallest path a-v-x-b), kInvalidNode when there is none.
NodeId nested_scan_via(const graph::Graph& g, NodeId a, NodeId b) {
  for (NodeId v : g.neighbors(a)) {
    for (NodeId x : g.neighbors(v)) {
      if (g.has_edge(x, b)) return v;
    }
  }
  return kInvalidNode;
}

TEST(DynamicWcds, EveryViaIsTheNestedScanFromOneEndpoint) {
  // The event path reads each via off its bounded search's BFS tree; after
  // every move and on/off event, each stored via must be the one the nested
  // scan picks from one endpoint of its pair (the endpoint that last
  // re-derived the pair).
  constexpr std::uint32_t kNodes = 300;
  DynamicWcds dyn(deployment(kNodes, 10.0, 14));
  geom::Xoshiro256ss rng(15);
  const double side = geom::side_for_expected_degree(kNodes, 10.0);
  std::vector<NodeId> off;
  std::size_t checked = 0;
  const auto expect_vias = [&](int step) {
    const graph::Graph& g = dyn.active_graph();
    for (NodeId a = 0; a < kNodes; ++a) {
      for (const auto& bridge : Access::rows(dyn)[a]) {
        const NodeId b = bridge.partner;
        EXPECT_TRUE(bridge.via == nested_scan_via(g, a, b) ||
                    bridge.via == nested_scan_via(g, b, a))
            << "step " << step << " pair " << a << "-" << b << " via "
            << bridge.via;
        ++checked;
      }
    }
  };
  expect_vias(-1);
  for (int step = 0; step < 200; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(kNodes));
    const auto kind = rng.next_below(10);
    if (kind < 7) {
      (void)dyn.move_node(u, {rng.next_double(0.0, side),
                              rng.next_double(0.0, side)});
    } else if (kind == 7) {
      (void)dyn.deactivate(u);
      (void)dyn.activate(u);
    } else if (kind == 8) {
      (void)dyn.deactivate(u);
      off.push_back(u);
    } else if (!off.empty()) {
      (void)dyn.activate(off.front());
      off.erase(off.begin());
    }
    expect_vias(step);
  }
  EXPECT_GT(checked, 10000u);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, AuditCatchesUnsoundMirrorsAndWatchdogRepairs) {
  // Each fault is planted in the row of the larger endpoint b of a bridged
  // pair {a, b}, so bridges_complete (which reads the smaller endpoint's
  // row) still holds and only the mirror checks of bridges_sound can see it.
  enum class Fault { kWrongViaMirror, kMissingMirror, kDuplicatePartner };
  for (const Fault fault : {Fault::kWrongViaMirror, Fault::kMissingMirror,
                            Fault::kDuplicatePartner}) {
    SCOPED_TRACE(static_cast<int>(fault));
    DynamicWcds dyn(deployment(200, 10.0, 12));
    ASSERT_TRUE(dyn.audit().ok());
    // The first bridged pair {a, b}, a < b, and a second valid via for it:
    // on a path a-v-x-b the stored via is adjacent to one endpoint, and its
    // neighbour toward the other endpoint is a valid via from that side, so
    // the wrong mirror is still a valid bridge on its own.
    const graph::Graph& g = dyn.active_graph();
    NodeId a = 0;
    const auto later = [&a](const auto& bridge) { return bridge.partner > a; };
    while (a < dyn.node_count() &&
           std::ranges::none_of(Access::rows(dyn)[a], later)) {
      ++a;
    }
    ASSERT_LT(a, dyn.node_count());
    const auto stored = *std::ranges::find_if(Access::rows(dyn)[a], later);
    const NodeId b = stored.partner;
    const NodeId far = g.has_edge(a, stored.via) ? b : a;
    const auto row = g.neighbors(stored.via);
    const auto other = std::ranges::find_if(
        row, [&](NodeId x) { return g.has_edge(x, far); });
    ASSERT_NE(other, row.end());
    auto& back = Access::rows(dyn)[b];
    const auto mirror = std::ranges::find_if(
        back, [a](const auto& bridge) { return bridge.partner == a; });
    ASSERT_NE(mirror, back.end());
    switch (fault) {
      case Fault::kWrongViaMirror:
        mirror->via = *other;
        break;
      case Fault::kMissingMirror:
        back.erase(mirror);
        break;
      case Fault::kDuplicatePartner: {
        const auto copy = *mirror;
        back.push_back(copy);
        break;
      }
    }
    const Audit broken = dyn.audit();
    EXPECT_FALSE(broken.bridges_sound);
    EXPECT_TRUE(broken.bridges_complete);
    EXPECT_TRUE(broken.mis_independent && broken.mis_maximal &&
                broken.weakly_connected);
    EXPECT_FALSE(broken.ok());
    EXPECT_GT(dyn.watchdog().bridges_changed, 0u);
    EXPECT_TRUE(dyn.audit().ok());
  }
}

// ---------------------------------------------------------------------------
// Golden pins
//
// A seeded mixed event stream at n = 2048: random-waypoint moves, on/off
// pairs, lone deactivations and activations, moves into isolation and one
// crash/recover wave.  FNV-1a digests pin every RepairReport field of every
// event, the final MIS and the final S + C, so any change to repair order,
// role choices or bridge choices shows up as a changed constant.  Every 25th
// event the maintained radio graph is compared against the O(n^2) reference
// UDG of the current positions with inactive nodes' edges removed.

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFFu;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(const RepairReport& report) {
    add(report.demoted);
    add(report.promoted);
    add(report.bridges_changed);
    add(report.region_size);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

struct GoldenStream {
  std::uint64_t events = 0;
  std::uint64_t reports = 0;     // digest of every RepairReport
  std::uint64_t mis = 0;         // digest of is_mis_dominator(0..n)
  std::uint64_t dominators = 0;  // digest of dominators()
  std::size_t dominator_count = 0;
  std::size_t oracle_checks = 0;
  std::size_t oracle_mismatches = 0;
  std::size_t audit_failures = 0;
};

// Edges of the reference UDG over `dyn`'s current positions, restricted to
// active endpoints, in the same (u < v, row) order as Graph::edges().
std::vector<std::pair<NodeId, NodeId>> oracle_edges(const DynamicWcds& dyn) {
  std::vector<geom::Point> points(dyn.node_count());
  for (NodeId u = 0; u < dyn.node_count(); ++u) points[u] = dyn.position(u);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : udg::build_udg_reference(points).edges()) {
    if (dyn.is_active(u) && dyn.is_active(v)) edges.emplace_back(u, v);
  }
  return edges;
}

GoldenStream run_golden_stream() {
  constexpr std::uint32_t kNodes = 2048;
  constexpr double kDegree = 12.0;
  constexpr int kEpochs = 30;
  constexpr int kEpochEvents = 50;
  const bool audits_were = check::set_audits_enabled(false);
  const double side = geom::side_for_expected_degree(kNodes, kDegree);
  const auto start = deployment(kNodes, kDegree, 31);
  DynamicWcds dyn(start);
  mobility::RandomWaypoint model(start, mobility::ArenaBox{side, side},
                                 mobility::WaypointParams{}, 32);
  geom::Xoshiro256ss rng(33);
  GoldenStream out;
  Fnv1a reports;
  std::vector<NodeId> off;  // nodes switched off by a lone deactivate
  const auto after_event = [&](const RepairReport& report) {
    reports.add(report);
    if (++out.events % 25 != 0) return;
    ++out.oracle_checks;
    if (dyn.active_graph().edges() != oracle_edges(dyn)) {
      ++out.oracle_mismatches;
    }
    if (!dyn.audit().ok()) ++out.audit_failures;
  };
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    model.step(1.0);
    const auto& targets = model.positions();
    for (int k = 0; k < kEpochEvents; ++k) {
      const auto u = static_cast<NodeId>(rng.next_below(kNodes));
      const auto kind = rng.next_below(20);
      if (kind < 15) {
        after_event(dyn.move_node(u, targets[u]));
      } else if (kind < 17) {
        after_event(dyn.deactivate(u));
        after_event(dyn.activate(u));
      } else if (kind == 17) {
        after_event(dyn.deactivate(u));
        off.push_back(u);
      } else if (kind == 18 && !off.empty()) {
        after_event(dyn.activate(off.front()));
        off.erase(off.begin());
      } else {
        // Far outside the arena: u becomes a component of its own until a
        // later waypoint move brings it back.
        const double far = 1e4 + 10.0 * static_cast<double>(epoch);
        after_event(dyn.move_node(u, {far, far + static_cast<double>(k)}));
      }
    }
    if (epoch == kEpochs / 2) {
      std::vector<NodeId> victims;
      while (victims.size() < 6) {
        const auto v = static_cast<NodeId>(rng.next_below(kNodes));
        if (dyn.is_active(v) &&
            std::find(victims.begin(), victims.end(), v) == victims.end()) {
          victims.push_back(v);
        }
      }
      const auto wave = run_crash_schedule(dyn, victims);
      for (const CrashOutcome& outcome : wave.outcomes) {
        reports.add(outcome.node);
        after_event(outcome.crash_repair);
        after_event(outcome.recover_repair);
      }
    }
  }
  out.reports = reports.value();
  Fnv1a mis;
  for (NodeId u = 0; u < kNodes; ++u) mis.add(std::uint64_t{dyn.is_mis_dominator(u)});
  out.mis = mis.value();
  const auto dominators = dyn.dominators();
  Fnv1a dom;
  for (const NodeId d : dominators) dom.add(d);
  out.dominators = dom.value();
  out.dominator_count = dominators.size();
  if (!dyn.audit().ok()) ++out.audit_failures;
  check::set_audits_enabled(audits_were);
  return out;
}

const GoldenStream& golden_stream() {
  static const GoldenStream stream = run_golden_stream();
  return stream;
}

TEST(DynamicWcdsGolden, MixedChurnIsPinned) {
  const GoldenStream& s = golden_stream();
  EXPECT_EQ(s.events, 1667u);
  EXPECT_EQ(s.reports, 0x64e95ce247d072ebULL);
  EXPECT_EQ(s.mis, 0xcaa2a41191bdcf04ULL);
  EXPECT_EQ(s.dominators, 0x7539e736ce43a8c2ULL);
  EXPECT_EQ(s.dominator_count, 768u);
  EXPECT_EQ(s.audit_failures, 0u);
}

TEST(DynamicWcdsGolden, ActiveGraphMatchesReferenceUdg) {
  const GoldenStream& s = golden_stream();
  EXPECT_GT(s.oracle_checks, 50u);
  EXPECT_EQ(s.oracle_mismatches, 0u);
}

}  // namespace
}  // namespace wcds::maintenance
