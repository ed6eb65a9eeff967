#include "routing/geographic.h"

#include <stdexcept>

namespace wcds::routing {

Route greedy_geographic_route(const graph::Graph& g,
                              std::span<const geom::Point> points, NodeId src,
                              NodeId dst) {
  if (points.size() != g.node_count()) {
    throw std::invalid_argument("greedy_geographic_route: size mismatch");
  }
  if (src >= g.node_count() || dst >= g.node_count()) {
    throw std::out_of_range("greedy_geographic_route: endpoint out of range");
  }
  Route route;
  NodeId at = src;
  route.path.push_back(at);
  double here = geom::squared_distance(points[at], points[dst]);
  while (at != dst) {
    NodeId best = kInvalidNode;
    double best_d2 = here;
    for (NodeId v : g.neighbors(at)) {
      const double d2 = geom::squared_distance(points[v], points[dst]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = v;
      }
    }
    if (best == kInvalidNode) {
      route.stuck = true;  // local minimum: greedy mode fails here
      return route;
    }
    at = best;
    here = best_d2;
    route.path.push_back(at);
    // Strictly decreasing distance-to-destination makes loops impossible,
    // so no hop budget is needed.
  }
  route.delivered = true;
  return route;
}

}  // namespace wcds::routing
