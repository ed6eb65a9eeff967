#include <gtest/gtest.h>

#include "fault/plan.h"
#include "geom/workload.h"
#include "mis/mis.h"
#include "mobility/models.h"
#include "protocols/mis_maintenance_protocol.h"
#include "udg/udg.h"

namespace wcds::mobility {
namespace {

std::vector<geom::Point> start_positions(std::uint32_t n, double side,
                                         std::uint64_t seed) {
  return geom::uniform_square(n, side, seed);
}

bool inside(const std::vector<geom::Point>& pts, const ArenaBox& arena) {
  for (const auto& p : pts) {
    if (p.x < -1e-9 || p.x > arena.width + 1e-9 || p.y < -1e-9 ||
        p.y > arena.height + 1e-9) {
      return false;
    }
  }
  return true;
}

double total_displacement(const std::vector<geom::Point>& a,
                          const std::vector<geom::Point>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += geom::distance(a[i], b[i]);
  return sum;
}

TEST(RandomWaypoint, RejectsBadParameters) {
  EXPECT_THROW(
      RandomWaypoint(start_positions(5, 4.0, 1), {0.0, 4.0}, {}, 1),
      std::invalid_argument);
  WaypointParams bad;
  bad.min_speed = 2.0;
  bad.max_speed = 1.0;
  EXPECT_THROW(
      RandomWaypoint(start_positions(5, 4.0, 1), {4.0, 4.0}, bad, 1),
      std::invalid_argument);
}

TEST(RandomWaypoint, StaysInsideAndMoves) {
  const ArenaBox arena{10.0, 10.0};
  RandomWaypoint model(start_positions(50, 10.0, 2), arena, {}, 3);
  const auto before = model.positions();
  for (int i = 0; i < 20; ++i) {
    model.step(0.5);
    EXPECT_TRUE(inside(model.positions(), arena));
  }
  EXPECT_GT(total_displacement(before, model.positions()), 1.0);
}

TEST(RandomWaypoint, SpeedBoundsRespected) {
  const ArenaBox arena{20.0, 20.0};
  WaypointParams params;
  params.min_speed = 0.5;
  params.max_speed = 1.0;
  params.pause_time = 0.0;
  RandomWaypoint model(start_positions(30, 20.0, 5), arena, params, 7);
  auto prev = model.positions();
  for (int i = 0; i < 10; ++i) {
    const double dt = 0.25;
    model.step(dt);
    const auto& now = model.positions();
    for (std::size_t j = 0; j < now.size(); ++j) {
      // A node can cover at most max_speed * dt per step.
      EXPECT_LE(geom::distance(prev[j], now[j]),
                params.max_speed * dt + 1e-9);
    }
    prev = now;
  }
}

TEST(RandomWaypoint, DeterministicGivenSeed) {
  const ArenaBox arena{8.0, 8.0};
  RandomWaypoint a(start_positions(20, 8.0, 1), arena, {}, 11);
  RandomWaypoint b(start_positions(20, 8.0, 1), arena, {}, 11);
  for (int i = 0; i < 5; ++i) {
    a.step(1.0);
    b.step(1.0);
  }
  EXPECT_EQ(a.positions(), b.positions());
}

TEST(RandomWalk, ReflectsOffWalls) {
  const ArenaBox arena{5.0, 5.0};
  WalkParams params;
  params.speed = 2.0;
  RandomWalk model(start_positions(40, 5.0, 3), arena, params, 13);
  for (int i = 0; i < 50; ++i) {
    model.step(1.0);
    EXPECT_TRUE(inside(model.positions(), arena));
  }
}

TEST(RandomWalk, ZeroDtIsNoMove) {
  const ArenaBox arena{5.0, 5.0};
  RandomWalk model(start_positions(10, 5.0, 4), arena, {}, 17);
  const auto before = model.positions();
  model.step(0.0);
  EXPECT_EQ(total_displacement(before, model.positions()), 0.0);
}

TEST(ReferencePointGroup, RejectsZeroGroups) {
  GroupParams params;
  params.groups = 0;
  EXPECT_THROW(ReferencePointGroup(start_positions(10, 5.0, 1), {5.0, 5.0},
                                   params, 1),
               std::invalid_argument);
}

TEST(ReferencePointGroup, MembersStayNearReference) {
  const ArenaBox arena{15.0, 15.0};
  GroupParams params;
  params.groups = 3;
  params.member_radius = 1.0;
  ReferencePointGroup model(start_positions(30, 15.0, 6), arena, params, 19);
  for (int i = 0; i < 20; ++i) model.step(0.5);
  // Group members cluster: mean intra-group pairwise distance is bounded by
  // the member diameter (2 * radius) with slack for arena clamping.
  const auto& pts = model.positions();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (model.group_of(i) == model.group_of(j)) {
        EXPECT_LE(geom::distance(pts[i], pts[j]),
                  2.0 * params.member_radius + 1e-6);
      }
    }
  }
  EXPECT_TRUE(inside(pts, arena));
}

TEST(MobilityUnderLoss, WaypointTrajectoryKeepsMaintainedMisValid) {
  // End-to-end churn x loss: a random-waypoint trajectory drives topology
  // updates into the distributed MIS maintenance session while 15% of all
  // message copies are lost; the watchdog restores convergence per step.
  const ArenaBox arena{8.0, 8.0};
  RandomWaypoint model(start_positions(60, 8.0, 11), arena, {}, 13);
  const auto lossy = fault::Plan::lossy(0.15, 5);
  protocols::MisMaintenanceSession session(udg::build_udg(model.positions()),
                                           sim::DelayModel::unit(), &lossy);
  ASSERT_TRUE(session.stabilize());
  for (int step = 0; step < 10; ++step) {
    model.step(0.4);
    const auto g = udg::build_udg(model.positions());
    ASSERT_TRUE(session.update(g)) << "step " << step;
    ASSERT_TRUE(session.watchdog()) << "step " << step;
    EXPECT_TRUE(mis::is_maximal_independent_set(g, session.mis_mask()))
        << "step " << step;
  }
}

TEST(ClampToArena, Clamps) {
  const ArenaBox arena{2.0, 3.0};
  const auto p = clamp_to_arena({-1.0, 5.0}, arena);
  EXPECT_DOUBLE_EQ(p.x, 0.0);
  EXPECT_DOUBLE_EQ(p.y, 3.0);
}

}  // namespace
}  // namespace wcds::mobility
