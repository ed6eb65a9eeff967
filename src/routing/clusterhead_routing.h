// Clusterhead unicast routing over the Algorithm II spanner (paper, §4.2).
//
// "For any pair of adjacent nodes in G, the unicast routing between them can
//  be performed in a single hop.  For any pair of non-adjacent nodes, the
//  unicast routing will follow the min-hop path in the spanner G'.  The
//  MIS-dominators (clusterheads) maintain the routing tables.  If a non
//  MIS-dominator node needs to send a packet to a non-adjacent node, it
//  sends the packet along with the destination's ID to its clusterhead.  The
//  clusterhead uses its routing tables to identify the next clusterhead on
//  the path to the destination's clusterhead, and uses its 2HopDomList and
//  3HopDomList to identify the path to the next clusterhead."
//
// Concretely: the clusterhead overlay graph H has the MIS-dominators as
// vertices and an edge per 2-hop pair (expanded through the 2HopDomList
// intermediate) and per bridged 3-hop pair (expanded through the selected
// additional-dominator path u-v-x-w).  Every expanded hop is a black
// (spanner) edge.
//
// The paper's per-head table entry "next clusterhead toward t" is not
// stored: by Lemma 2 the overlay has bounded degree, so it is answered on
// demand by a BFS from t that stops as soon as it reaches the asking head.
// The answer is the first neighbour, in overlay row order, one hop closer to
// t — exactly what a stored per-head BFS table would hold, because FIFO BFS
// levels stay grouped by first step.  That needs the overlay to be
// symmetric, which construction checks.  Memory is O(n + overlay edges).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "routing/router.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {

// Thrown when the dominator lists yield an overlay edge without its
// reverse: on-demand next hops search from the destination, which is only
// valid over a symmetric overlay.
class AsymmetricOverlayError : public std::logic_error {
 public:
  AsymmetricOverlayError(NodeId from_head, NodeId to_head);
  [[nodiscard]] NodeId from_head() const { return from_; }
  [[nodiscard]] NodeId to_head() const { return to_; }

 private:
  NodeId from_;
  NodeId to_;
};

// Reusable scratch for one bounded BFS over the overlay, by dense head
// index.  Visits are epoch-stamped, so beginning a search is O(1) rather
// than O(h), and the arrays are sized once per owner, not once per search.
// Keep one per thread.
class OverlaySearch {
 public:
  // Starts a new, empty search over an overlay of `heads` vertices.
  void begin(std::size_t heads);

  [[nodiscard]] bool seen(std::uint32_t v) const {
    return visit_[v].epoch == epoch_;
  }
  // BFS level of v; meaningful only when seen(v).
  [[nodiscard]] std::uint32_t level(std::uint32_t v) const {
    return visit_[v].level;
  }
  // True when v was discovered at exactly `level` in this search.
  [[nodiscard]] bool at_level(std::uint32_t v, std::uint32_t level) const {
    return visit_[v].epoch == epoch_ && visit_[v].level == level;
  }
  // Records v at `level` and appends it to the discovery order.
  void discover(std::uint32_t v, std::uint32_t level) {
    visit_[v] = {epoch_, level};
    order_.push_back(v);
  }
  // Discovered vertices in discovery (FIFO) order.
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const {
    return order_[i];
  }

 private:
  struct Visit {
    std::uint32_t epoch = 0;
    std::uint32_t level = 0;
  };
  std::vector<Visit> visit_;
  std::vector<std::uint32_t> order_;
  std::uint32_t epoch_ = 0;
};

class ClusterheadRouter final : public Router {
 public:
  // Builds clusterhead assignments and the overlay from an Algorithm II run
  // on g.  Both arguments are borrowed: `g` and the view's backing storage
  // must outlive the router.  The dominator lists are only read during
  // construction.  Throws AsymmetricOverlayError if an overlay edge lacks
  // its reverse.  O(n + overlay edges).
  ClusterheadRouter(const graph::Graph& g, core::Algorithm2View wcds);

  // Route a unicast packet.  Adjacent pairs use the direct edge; everything
  // else travels src -> clusterhead -> ... -> clusterhead -> dst over black
  // edges only.
  [[nodiscard]] Route route(NodeId src, NodeId dst) const override;

  [[nodiscard]] Strategy strategy() const noexcept override {
    return Strategy::kClusterhead;
  }

  // The clusterhead serving node u (u itself if u is an MIS-dominator).
  [[nodiscard]] NodeId clusterhead(NodeId u) const { return clusterhead_[u]; }

  // The next clusterhead after head `from` on the overlay path toward head
  // `to`; kInvalidNode if unreachable.  This is exactly the routing-table
  // entry the paper stores at each MIS-dominator: the first overlay
  // neighbour of `from`, in row order, one hop closer to `to`.  One bounded
  // BFS from `to`.
  [[nodiscard]] NodeId next_clusterhead(NodeId from_head, NodeId to_head) const;

  // Expand the overlay edge from head `from` to its overlay-neighbor head
  // `to` into the G-path between them (excluding `from`, including `to`):
  // the 2HopDomList / 3HopDomList lookup of Section 4.2.
  [[nodiscard]] std::vector<NodeId> overlay_leg(NodeId from_head,
                                                NodeId to_head) const;

  // Allocation-free form of overlay_leg for per-packet hot paths (the
  // service engine walks millions of legs): the intermediates of the
  // from->to overlay edge.  via2 is kInvalidNode for 2-hop edges.
  struct Leg {
    NodeId via1 = kInvalidNode;
    NodeId via2 = kInvalidNode;
  };
  [[nodiscard]] Leg overlay_leg_compact(NodeId from_head, NodeId to_head) const;

  [[nodiscard]] bool is_clusterhead(NodeId u) const {
    return index_[u] != 0xFFFFFFFFu;
  }

  // All MIS-dominators, ascending.  The dense head index used by
  // overlay-table accessors is the position in this span.
  [[nodiscard]] std::span<const NodeId> heads() const { return heads_; }

  // Dense head index of node u, or 0xFFFFFFFF if u is not a clusterhead.
  [[nodiscard]] std::uint32_t head_index(NodeId u) const { return index_[u]; }

  // Overlay (clusterhead-graph) hop distance between two heads;
  // 0xFFFFFFFF if unreachable.  One BFS from `from`, stopped at `to`.
  [[nodiscard]] std::uint32_t overlay_distance(NodeId from_head,
                                               NodeId to_head) const;

  // Diagnostics for experiment T5.
  [[nodiscard]] std::size_t clusterhead_count() const {
    return heads_.size();
  }
  [[nodiscard]] std::size_t overlay_edge_count() const {
    return targets_.size();
  }
  // Logical size of the paper's §4.2 next-hop tables, summed over all
  // clusterheads (h per head).  The router stores none of them: entries are
  // computed on demand, so this is what the scheme would cost a deployment,
  // not what this object holds (see bytes()).
  [[nodiscard]] std::size_t table_entries() const {
    return heads_.size() * heads_.size();
  }

  // Bytes owned by the router: the sum of its containers' capacities.
  [[nodiscard]] std::size_t bytes() const;

  // The overlay as CSR rows in insertion order (2HopDomList entries first,
  // then 3HopDomList entries): the dense indices of head `head_index`'s
  // overlay neighbours, and the matching legs slot for slot.
  [[nodiscard]] std::span<const std::uint32_t> overlay_row(
      std::uint32_t head_index) const {
    return {targets_.data() + offsets_[head_index],
            targets_.data() + offsets_[head_index + 1]};
  }
  [[nodiscard]] std::span<const Leg> overlay_row_legs(
      std::uint32_t head_index) const {
    return {legs_.data() + offsets_[head_index],
            legs_.data() + offsets_[head_index + 1]};
  }

  // Bounded BFS over the overlay from dense index `root`, stopping as soon
  // as `stop` is discovered.  Returns the overlay distance root -> stop, or
  // 0xFFFFFFFF if stop is unreachable (the search then covers root's
  // component).  Every vertex closer to root than stop is in `scratch`.
  std::uint32_t search(std::uint32_t root, std::uint32_t stop,
                       OverlaySearch& scratch) const;

  // After search(root, ...) reached `at` (at != root): the position in
  // overlay_row(at) of the first neighbour one level closer to root.  This
  // is the routing-table step from `at` toward root.
  [[nodiscard]] std::size_t step_toward_root(
      std::uint32_t at, const OverlaySearch& scratch) const;

 private:
  const graph::Graph& g_;
  std::vector<NodeId> clusterhead_;
  std::vector<NodeId> heads_;          // MIS-dominators, ascending
  std::vector<std::uint32_t> index_;   // node -> dense head index
  // Overlay CSR: row i is targets_/legs_[offsets_[i] .. offsets_[i + 1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;  // dense head indices
  std::vector<Leg> legs_;               // via1 always set; via2 for 3-hop
};

}  // namespace wcds::routing
