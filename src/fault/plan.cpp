#include "fault/plan.h"

#include <algorithm>

#include "check/check.h"

namespace wcds::fault {

CrashIndex::CrashIndex(std::span<const CrashWindow> windows,
                       std::size_t node_count)
    : windows_(windows.begin(), windows.end()) {
  if (windows_.empty()) return;
  std::sort(windows_.begin(), windows_.end(),
            [](const CrashWindow& a, const CrashWindow& b) {
              return a.node != b.node ? a.node < b.node
                                      : a.down_from < b.down_from;
            });
  begin_.assign(node_count + 1, 0);
  for (const CrashWindow& window : windows_) {
    WCDS_REQUIRE(window.node < node_count,
                 "fault::CrashIndex: crash window names node "
                     << window.node << " outside the topology");
    ++begin_[window.node + 1];
  }
  for (std::size_t u = 0; u < node_count; ++u) begin_[u + 1] += begin_[u];
}

bool CrashIndex::down(NodeId node, sim::SimTime at) const {
  if (begin_.empty()) return false;
  for (std::uint32_t i = begin_[node]; i < begin_[node + 1]; ++i) {
    if (at >= windows_[i].down_from && at < windows_[i].up_at) return true;
  }
  return false;
}

Plan Plan::lossy(double drop, std::uint64_t seed) {
  Plan plan;
  plan.drop = drop;
  plan.seed = seed;
  return plan;
}

Plan Plan::chaos(double drop, double duplicate, sim::SimTime max_jitter,
                 std::uint64_t seed) {
  Plan plan;
  plan.drop = drop;
  plan.duplicate = duplicate;
  plan.max_jitter = max_jitter;
  plan.seed = seed;
  return plan;
}

Plan& Plan::crash(NodeId node, sim::SimTime down_from, sim::SimTime up_at) {
  WCDS_REQUIRE(down_from < up_at,
               "fault::Plan: empty crash window for node " << node);
  crashes.push_back({node, down_from, up_at});
  return *this;
}

void Plan::require_valid_probabilities() const {
  WCDS_REQUIRE(drop >= 0.0 && drop < 1.0,
               "fault::Plan: drop probability must be in [0, 1)");
  WCDS_REQUIRE(duplicate >= 0.0 && duplicate <= 1.0,
               "fault::Plan: duplicate probability must be in [0, 1]");
  for (const LinkOverride& entry : link_overrides) {
    WCDS_REQUIRE(entry.drop >= 0.0 && entry.drop < 1.0 &&
                     entry.duplicate >= 0.0 && entry.duplicate <= 1.0,
                 "fault::Plan: link override probability out of range");
  }
}

std::size_t Plan::blackout_region(std::span<const geom::Point> points,
                                  const geom::Point& center, double radius,
                                  sim::SimTime down_from, sim::SimTime up_at) {
  std::size_t covered = 0;
  for (NodeId u = 0; u < points.size(); ++u) {
    if (geom::within_range(points[u], center, radius)) {
      crash(u, down_from, up_at);
      ++covered;
    }
  }
  return covered;
}

}  // namespace wcds::fault
