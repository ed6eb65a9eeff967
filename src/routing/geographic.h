// Greedy geographic forwarding — the position-*based* routing baseline
// (GPSR's greedy mode, Karp & Kung [12], which the paper contrasts with its
// position-less clusterhead scheme).
//
// Each node forwards to the neighbor strictly closest to the destination;
// when no neighbor improves on the current node, greedy mode is *stuck* in
// a local minimum (a void).  Full GPSR escapes via perimeter routing on a
// planarized subgraph; this baseline reports the failure instead, which is
// exactly the comparison the T5 experiment needs: position-based greedy
// needs coordinates *and* still fails in voids, while clusterhead routing
// needs neither coordinates nor recovery.
#pragma once

#include <span>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "routing/router.h"

namespace wcds::routing {

// Greedy forwarding from src toward dst over g (any connected spanning
// subgraph of the UDG works: the UDG itself, GG, or RNG).  A route that
// ends in a local minimum (a void) comes back with `stuck` set.
[[nodiscard]] Route greedy_geographic_route(
    const graph::Graph& g, std::span<const geom::Point> points, NodeId src,
    NodeId dst);

// routing::Router adapter over greedy geographic forwarding, so consumers
// can swap strategies by enum (make_router) instead of call shape.  Borrows
// both the graph and the position array.
class GeographicRouter final : public Router {
 public:
  GeographicRouter(const graph::Graph& g, std::span<const geom::Point> points)
      : g_(g), points_(points) {}

  [[nodiscard]] Route route(NodeId src, NodeId dst) const override {
    return greedy_geographic_route(g_, points_, src, dst);
  }

  [[nodiscard]] Strategy strategy() const noexcept override {
    return Strategy::kGeographic;
  }

 private:
  const graph::Graph& g_;
  std::span<const geom::Point> points_;
};

}  // namespace wcds::routing
