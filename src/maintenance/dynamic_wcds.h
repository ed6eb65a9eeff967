// Dynamic WCDS maintenance under node mobility and on/off events
// (paper, Section 4.2, final paragraphs).
//
// The paper states the key technique and defers the full procedure to a
// later paper: "maintain the MIS in the unit-disk graph at all times, and
// maintain information about all MIS-dominators within three-hop distance
// ... the nodes that get affected are within three-hop distance."  We
// implement exactly that contract, and every event costs work bounded by
// that 3-hop region, not by n:
//
//  * the radio environment (the UDG over active nodes) is kept as sorted
//    adjacency rows plus a range-sided cell grid of positions.  An event
//    relinks only the node it concerns: a move unlinks it from its old
//    neighbours and links it to the active nodes in range in the 3x3 cells
//    around its new position; switching off unlinks, switching on links.
//    The edge set always equals udg::build_udg over the active positions;
//  * protocol-state repair is local: only nodes within the 3-hop balls of
//    the event site (old and new position) can change role, and bridges are
//    re-derived only for MIS nodes in those balls (each node set is one
//    multi-source search; each bridge is stored under both endpoints, and
//    its via is read off the 3-hop search tree from one endpoint, so no
//    adjacency probe runs on the event path);
//  * invariants after every event: S is an MIS of the active graph, every
//    3-hop MIS pair is bridged by an additional-dominator, every stored
//    bridge is still valid, and hence S + C is a WCDS of every connected
//    component.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "geom/point.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"

namespace wcds::maintenance {

struct RepairReport {
  std::size_t demoted = 0;          // MIS nodes removed
  std::size_t promoted = 0;         // MIS nodes added
  std::size_t bridges_changed = 0;  // additional-dominator entries touched
  std::size_t region_size = 0;      // nodes examined (3-hop locality witness)
};

struct Audit {
  bool mis_independent = false;
  bool mis_maximal = false;
  bool bridges_complete = false;     // every 3-hop MIS pair bridged
  // Every stored bridge is valid and stored once under each endpoint with
  // the same via: the precondition of the row-wise drop in the event path.
  bool bridges_sound = false;
  bool weakly_connected = false;     // per connected component of the graph

  [[nodiscard]] bool ok() const {
    return mis_independent && mis_maximal && bridges_complete &&
           bridges_sound && weakly_connected;
  }
};

class DynamicWcds {
 public:
  // Builds the initial MIS + bridges from scratch over the given deployment.
  explicit DynamicWcds(std::vector<geom::Point> points, double range = 1.0);

  // Events.  Each returns what the localized repair touched.
  RepairReport move_node(NodeId u, const geom::Point& destination);
  RepairReport deactivate(NodeId u);   // switch the radio off
  RepairReport activate(NodeId u);     // switch it back on (same position)

  // Observability hook.  Defaults to the ambient obs::global_recorder() at
  // construction time; null records nothing.  Every event then feeds its
  // RepairReport (demotions/promotions/bridge churn, region-size histogram)
  // and a wall-clock phase timing into the recorder.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const noexcept { return recorder_; }

  // State inspection.  active_graph() materializes the radio graph as CSR on
  // first use after an event (O(n + m)) and caches it; the reference is
  // valid until the next event.  Like the events, not thread-safe.
  [[nodiscard]] const graph::Graph& active_graph() const;
  [[nodiscard]] bool is_active(NodeId u) const { return active_[u]; }
  [[nodiscard]] bool is_mis_dominator(NodeId u) const { return mis_[u]; }
  [[nodiscard]] std::vector<NodeId> dominators() const;  // S + C, ascending
  [[nodiscard]] std::size_t node_count() const { return points_.size(); }
  [[nodiscard]] const geom::Point& position(NodeId u) const {
    return points_[u];
  }

  // Full global invariant check (test oracle; not part of the repair path).
  // O(n + m) plus a 3-hop bounded BFS per MIS node.
  [[nodiscard]] Audit audit() const;

  // Liveness watchdog: audit the maintained invariants and, when any fail,
  // drop every bridge and run a repair pass seeded at every node.  Per-event
  // localized repairs keep the invariants by construction, so this is the
  // recovery path for compound fault sequences (crash storms via
  // maintenance::run_crash_schedule) or external state perturbation.  Returns the all-zero report when the
  // audit already passed.
  RepairReport watchdog();

 private:
  // Test seam: reads and plants bridge-table entries to exercise audit().
  friend struct DynamicWcdsTestAccess;

  // Radio graph edits for an active node u: link adds the edges to every
  // active node in range (3x3 grid cells around u), unlink removes u's
  // edges.  The caller keeps active_[u] and the grid in step.
  void link_node(NodeId u);
  void unlink_node(NodeId u);
  // Moves u's grid entry from the cell of `from` to the cell of `to`.
  void move_cell(NodeId u, const geom::Point& from, const geom::Point& to);
  // Debug/test tripwire: runs check::audit_invariants (unit-disk bounds,
  // active-node scope) plus the bridge completeness and soundness audits
  // after `event`.
  // No-op unless check::audits_enabled().
  void maybe_audit(const char* event) const;
  // Localized repair around `seeds`; `old_region` is the 3-hop ball of the
  // event site in the pre-event graph.
  RepairReport repair(const std::vector<NodeId>& seeds,
                      const std::vector<NodeId>& old_region);
  // Fold one event's RepairReport into the recorder (no-op when null).
  void record_event(const char* event, const RepairReport& report) const;
  // Re-derive bridges for every 3-hop pair with an endpoint in `mis_nodes`
  // (ascending).
  std::size_t rebridge(const std::vector<NodeId>& mis_nodes);
  // Nodes within `bound` hops of `sources`, each once, in BFS order; valid
  // until the next search on bfs_.
  std::span<const NodeId> search(std::span<const NodeId> from, HopCount bound);
  // audit()'s independent oracle for a stored bridge; the event path reads
  // vias off its searches and never calls these.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  [[nodiscard]] bool bridge_valid(NodeId a, NodeId b, NodeId v) const;

  std::vector<geom::Point> points_;
  std::vector<bool> active_;
  double range_;
  // Active radio graph: sorted adjacency rows, empty for inactive nodes.
  std::vector<std::vector<NodeId>> adj_;
  // Every node (active or not) by range-sided grid cell, keyed like
  // udg::build_udg; empty cells are erased.
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  // CSR snapshot of adj_ behind active_graph(), rebuilt lazily after events.
  mutable graph::Graph csr_;
  mutable bool csr_stale_ = false;
  std::vector<bool> mis_;
  // bridges_[a] holds {b, v} for each MIS node b exactly 3 hops from a: v is
  // the additional dominator bridging them, the smallest first hop of a
  // 3-hop path from the endpoint that last re-derived the pair.  Each pair
  // is in both rows with the same v; rows are unordered.
  struct Bridge {
    NodeId partner;
    NodeId via;
  };
  std::vector<std::vector<Bridge>> bridges_;
  graph::BoundedBfs bfs_;  // event-path search scratch
  obs::Recorder* recorder_ = nullptr;
};

}  // namespace wcds::maintenance
