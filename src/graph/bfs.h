// Breadth-first search primitives: hop distances, components, eccentricity.
//
// Hop ("topological") distance is the metric used throughout the paper for
// the MIS structural lemmas and for the spanner's topological dilation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::graph {

// Hop distance from `source` to every node; kUnreachable where disconnected.
[[nodiscard]] std::vector<HopCount> bfs_distances(const Graph& g, NodeId source);

// Hop distance from the nearest of `sources` to every node.
[[nodiscard]] std::vector<HopCount> multi_source_bfs(
    const Graph& g, std::span<const NodeId> sources);

// Hop distance between a single pair; kUnreachable if disconnected.  Early-
// exits as soon as `target` is settled.
[[nodiscard]] HopCount hop_distance(const Graph& g, NodeId source, NodeId target);

// Component label per node (labels are 0..k-1 in discovery order).
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

// Max finite hop distance from `source` (its eccentricity within its
// component).
[[nodiscard]] HopCount eccentricity(const Graph& g, NodeId source);

// BFS truncated at a hop bound, over caller-owned scratch.  Visits are
// epoch-stamped, so a search costs O(nodes and edges within the bound), not
// O(n): the scratch is sized to the node count once and reused by every
// later search.  Not thread-safe; use one instance per thread.
class BoundedBfs {
 public:
  // Visits every node within `bound` hops of `sources` and returns each once
  // in BFS order (distinct sources first, as given).  `neighbors(u)` yields
  // u's adjacency as a range.  The span is valid until the next run().
  template <typename Neighbors>
  std::span<const NodeId> run(std::size_t node_count,
                              std::span<const NodeId> sources, HopCount bound,
                              const Neighbors& neighbors);
  std::span<const NodeId> run(const Graph& g, std::span<const NodeId> sources,
                              HopCount bound) {
    return run(g.node_count(), sources, bound,
               [&g](NodeId u) { return g.neighbors(u); });
  }

  // Hop distance from the last run's nearest source: exact when at most the
  // bound, kUnreachable otherwise (that is, when the run did not visit v).
  [[nodiscard]] HopCount distance(NodeId v) const {
    return stamp_[v] == epoch_ ? dist_[v] : kUnreachable;
  }

  // The node whose expansion first reached v in the last run (its first
  // discoverer); a source is its own parent.  Requires distance(v) !=
  // kUnreachable.  For a non-source v, parent(v) is adjacent to v and
  // distance(parent(v)) == distance(v) - 1.
  //
  // With one source s and ascending neighbour rows, the ancestor of v at
  // distance 1 is the smallest neighbour of s on a shortest s-v path: the
  // queue is FIFO, s's row puts level 1 in ascending order, and each level
  // is then queued in nondecreasing order of that ancestor, so the first
  // discoverer of v carries the smallest one.
  [[nodiscard]] NodeId parent(NodeId v) const { return parent_[v]; }

 private:
  // Starts a search: a new epoch, and each distinct source visited at 0.
  void begin(std::size_t node_count, std::span<const NodeId> sources);
  void visit(NodeId v, HopCount d, NodeId parent) {
    stamp_[v] = epoch_;
    dist_[v] = d;
    parent_[v] = parent;
    order_.push_back(v);
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<HopCount> dist_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> order_;
  std::uint32_t epoch_ = 0;
};

template <typename Neighbors>
std::span<const NodeId> BoundedBfs::run(std::size_t node_count,
                                        std::span<const NodeId> sources,
                                        HopCount bound,
                                        const Neighbors& neighbors) {
  begin(node_count, sources);
  // order_ doubles as the FIFO queue; distances along it never decrease, so
  // the first node at the bound ends the expansion.
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    const HopCount d = dist_[u];
    if (d >= bound) break;
    for (const NodeId v : neighbors(u)) {
      if (stamp_[v] != epoch_) visit(v, d + 1, u);
    }
  }
  return order_;
}

}  // namespace wcds::graph
