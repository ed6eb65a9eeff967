#include "maintenance/dynamic_wcds.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/audit.h"
#include "check/check.h"
#include "graph/subgraph.h"
#include "udg/udg.h"
#include "wcds/wcds_result.h"

namespace wcds::maintenance {
namespace {

// Grid cell of `p`: the same floor(coordinate / range) cells and key packing
// as udg::build_udg, so only the 3x3 block around a node can hold partners
// in range.
std::pair<std::int32_t, std::int32_t> cell_of(const geom::Point& p,
                                              double range) {
  const double inv = 1.0 / range;
  return {static_cast<std::int32_t>(std::floor(p.x * inv)),
          static_cast<std::int32_t>(std::floor(p.y * inv))};
}

std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

std::uint64_t cell_key(const geom::Point& p, double range) {
  const auto [cx, cy] = cell_of(p, range);
  return cell_key(cx, cy);
}

// Matches the row entry of the bridge whose other endpoint is `b`.
auto partner_is(NodeId b) {
  return [b](const auto& bridge) { return bridge.partner == b; };
}

}  // namespace

DynamicWcds::DynamicWcds(std::vector<geom::Point> points, double range)
    : points_(std::move(points)),
      active_(points_.size(), true),
      range_(range),
      recorder_(obs::global_recorder()) {
  WCDS_REQUIRE(range_ > 0.0, "DynamicWcds: range <= 0");
  obs::PhaseTimer build_timer(recorder_, "maintenance/initial_build");
  const std::size_t n = points_.size();
  csr_ = udg::build_udg(points_, range_);
  adj_.resize(n);
  bridges_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    const auto row = csr_.neighbors(u);
    adj_[u].assign(row.begin(), row.end());
    cells_[cell_key(points_[u], range_)].push_back(u);
  }
  mis_.assign(n, false);
  // Initial MIS: greedy lowest-ID-first (Algorithm II's ranking).
  std::vector<bool> removed(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (removed[u]) continue;
    mis_[u] = true;
    removed[u] = true;
    for (NodeId v : adj_[u]) removed[v] = true;
  }
  // Initial bridges for every 3-hop MIS pair.
  std::vector<NodeId> all_mis;
  for (NodeId u = 0; u < n; ++u) {
    if (mis_[u]) all_mis.push_back(u);
  }
  rebridge(all_mis);
  maybe_audit("construction");
}

void DynamicWcds::link_node(NodeId u) {
  auto& row = adj_[u];
  const auto [cx, cy] = cell_of(points_[u], range_);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = cells_.find(cell_key(cx + dx, cy + dy));
      if (it == cells_.end()) continue;
      for (NodeId v : it->second) {
        if (v != u && active_[v] &&
            geom::within_range(points_[u], points_[v], range_)) {
          row.push_back(v);
        }
      }
    }
  }
  std::sort(row.begin(), row.end());
  for (NodeId v : row) {
    auto& back = adj_[v];
    back.insert(std::lower_bound(back.begin(), back.end(), u), u);
  }
  csr_stale_ = true;
}

void DynamicWcds::unlink_node(NodeId u) {
  for (NodeId v : adj_[u]) {
    auto& back = adj_[v];
    back.erase(std::lower_bound(back.begin(), back.end(), u));
  }
  adj_[u].clear();
  csr_stale_ = true;
}

void DynamicWcds::move_cell(NodeId u, const geom::Point& from,
                            const geom::Point& to) {
  const std::uint64_t old_key = cell_key(from, range_);
  const std::uint64_t new_key = cell_key(to, range_);
  if (old_key == new_key) return;
  const auto it = cells_.find(old_key);
  auto& cell = it->second;
  *std::find(cell.begin(), cell.end(), u) = cell.back();
  cell.pop_back();
  if (cell.empty()) cells_.erase(it);
  cells_[new_key].push_back(u);
}

const graph::Graph& DynamicWcds::active_graph() const {
  if (csr_stale_) {
    std::vector<std::uint32_t> offsets(points_.size() + 1, 0);
    for (NodeId u = 0; u < points_.size(); ++u) {
      offsets[u + 1] =
          offsets[u] + static_cast<std::uint32_t>(adj_[u].size());
    }
    std::vector<NodeId> adjacency;
    adjacency.reserve(offsets.back());
    for (const auto& row : adj_) {
      adjacency.insert(adjacency.end(), row.begin(), row.end());
    }
    csr_ = graph::Graph(std::move(offsets), std::move(adjacency));
    csr_stale_ = false;
  }
  return csr_;
}

std::vector<NodeId> DynamicWcds::dominators() const {
  std::vector<bool> mask = mis_;
  for (const auto& row : bridges_) {
    for (const Bridge& bridge : row) mask[bridge.via] = true;
  }
  std::vector<NodeId> ids;
  for (NodeId u = 0; u < mask.size(); ++u) {
    if (mask[u]) ids.push_back(u);
  }
  return ids;
}

std::span<const NodeId> DynamicWcds::search(std::span<const NodeId> from,
                                            HopCount bound) {
  return bfs_.run(points_.size(), from, bound,
                  [this](NodeId u) -> const std::vector<NodeId>& {
                    return adj_[u];
                  });
}

bool DynamicWcds::has_edge(NodeId u, NodeId v) const {
  return std::binary_search(adj_[u].begin(), adj_[u].end(), v);
}

bool DynamicWcds::bridge_valid(NodeId a, NodeId b, NodeId v) const {
  // v must be active, adjacent to one endpoint and two hops from the other
  // (entries may be recorded from either endpoint of the pair).
  if (!active_[v] || !active_[a] || !active_[b]) return false;
  if (!mis_[a] || !mis_[b]) return false;
  const auto links = [&](NodeId near, NodeId far) {
    if (!has_edge(near, v)) return false;
    return std::any_of(adj_[v].begin(), adj_[v].end(),
                       [&](NodeId x) { return has_edge(x, far); });
  };
  return links(a, b) || links(b, a);
}

std::size_t DynamicWcds::rebridge(const std::vector<NodeId>& mis_nodes) {
  std::size_t changed = 0;

  // Drop every bridge with an endpoint in `mis_nodes`: clear that row and
  // the mirror entries in the partners' rows, rather than scan the table.
  // No other bridge can have gone stale, so this is exactly the set of
  // bridges that are touched or invalid:
  //  * every stored bridge is valid after every event (audited as
  //    Audit::bridges_sound), because each event re-derives all bridges of
  //    the MIS nodes it reaches;
  //  * an event can invalidate a bridge {a, b} via v only by removing an
  //    edge of a path a-v-x-b (every removed edge is incident to the event
  //    node u, so a and b were within 3 hops of u before the event), by
  //    switching off v, a or b (then u is v, a or b), or by demoting a or b.
  //    In the first two cases both endpoints lie in the old 3-hop ball of u;
  //    repair() puts every MIS node of that ball and every demoted node into
  //    `mis_nodes`.  Activation and promotion only add edges and dominators,
  //    which keeps every bridge valid.
  for (NodeId a : mis_nodes) {
    for (const Bridge& bridge : bridges_[a]) {
      std::erase_if(bridges_[bridge.partner], partner_is(a));
    }
    changed += bridges_[a].size();
    bridges_[a].clear();
  }

  // Recompute pairs around each touched MIS node, ascending.  A pair with
  // both endpoints touched is bridged from the smaller one, which runs
  // first: an MIS node b < a in `mis_nodes` bridged all of its own 3-hop
  // MIS pairs (b is active, being reached from a), and no other row entry
  // survived the drop.
  for (NodeId a : mis_nodes) {
    if (!mis_[a] || !active_[a]) continue;
    for (NodeId b : search({&a, 1}, 3)) {
      if (bfs_.distance(b) != 3 || !mis_[b]) continue;
      if (b < a && std::ranges::binary_search(mis_nodes, b)) continue;
      // The via is the smallest v of any path a-v-x-b, read off the search
      // tree as parent(parent(b)).  adj_ rows are ascending and the search
      // is single-source and FIFO, so level 1 is expanded in ascending ID
      // order, each level-2 node x is first reached from its smallest
      // level-1 neighbour, and level 2 is queued in that order.  b's first
      // discoverer is therefore the level-2 neighbour of b with the smallest
      // first hop, which is exactly the first v of adj_[a] with a neighbour
      // adjacent to b (any such neighbour is at level 2).
      const NodeId via = bfs_.parent(bfs_.parent(b));
      WCDS_DCHECK_EQ(bfs_.distance(via), 1u,
                     "rebridge: via is not a neighbour of a");
      bridges_[a].push_back({b, via});
      bridges_[b].push_back({a, via});
      ++changed;
    }
  }
  return changed;
}

RepairReport DynamicWcds::repair(const std::vector<NodeId>& seeds,
                                 const std::vector<NodeId>& old_region) {
  RepairReport report;

  // Each node list below is one search's `found` nodes plus the nodes of
  // `more` it did not visit, filtered by `keep`: no duplicates to remove,
  // only a sort.  Ascending, since role decisions depend on the visiting
  // order.
  const auto gather = [this](std::span<const NodeId> found,
                             const std::vector<NodeId>& more,
                             const auto& keep) {
    std::vector<NodeId> list;
    list.reserve(found.size() + more.size());
    for (NodeId u : found) {
      if (keep(u)) list.push_back(u);
    }
    for (NodeId u : more) {
      if (bfs_.distance(u) == kUnreachable && keep(u)) list.push_back(u);
    }
    std::sort(list.begin(), list.end());
    return list;
  };
  const auto any = [](NodeId) { return true; };

  // Region: 3-hop balls (new graph) around the seeds, plus the pre-event
  // ball (coverage lost by the event is confined there).
  const std::vector<NodeId> region = gather(search(seeds, 3), old_region, any);

  // 1. Resolve MIS conflicts (adjacent dominators): demote the higher ID.
  std::vector<NodeId> changed;  // demotions, then promotions
  bool conflict = true;
  while (conflict) {
    conflict = false;
    for (NodeId u : region) {
      if (!mis_[u] || !active_[u]) continue;
      for (NodeId v : adj_[u]) {
        if (mis_[v] && v > u) {
          mis_[v] = false;
          changed.push_back(v);
          conflict = true;
        }
      }
    }
  }
  // An inactive node cannot stay a dominator.
  for (NodeId u : region) {
    if (mis_[u] && !active_[u]) {
      mis_[u] = false;
      changed.push_back(u);
    }
  }
  report.demoted = changed.size();

  // 2. Restore maximality: any active node in the blast radius without a
  // dominator in its closed neighborhood is promoted, ascending by ID (the
  // promotion keeps independence because the candidate has no MIS neighbor).
  for (NodeId u : gather(search(changed, 1), region, any)) {
    if (!active_[u] || mis_[u]) continue;
    const auto& row = adj_[u];
    const bool dominated = std::any_of(row.begin(), row.end(),
                                       [&](NodeId v) { return mis_[v]; });
    if (!dominated) {
      mis_[u] = true;
      changed.push_back(u);
    }
  }
  report.promoted = changed.size() - report.demoted;

  // 3. Re-derive bridges for every MIS node within 3 hops of anything that
  // changed (seeds, demotions, promotions), or in the pre-event ball, and
  // drop those of every demoted node (a search source, at distance 0).  The
  // region holds the seeds' balls, so only role changes are searched.
  const auto affected_mis =
      gather(search(changed, 3), region,
             [this](NodeId u) { return mis_[u] || bfs_.distance(u) == 0; });
  report.bridges_changed = rebridge(affected_mis);

  report.region_size = region.size();
  return report;
}

RepairReport DynamicWcds::move_node(NodeId u, const geom::Point& destination) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "move_node: bad id " << u);
  obs::PhaseTimer event_timer(recorder_, "maintenance/move_node");
  std::vector<NodeId> old_region{u};
  if (active_[u]) {
    const auto ball = search({&u, 1}, 3);
    old_region.assign(ball.begin(), ball.end());
    unlink_node(u);
  }
  move_cell(u, points_[u], destination);
  points_[u] = destination;
  if (active_[u]) link_node(u);
  const RepairReport report = repair({u}, old_region);
  event_timer.stop();
  record_event("move_node", report);
  maybe_audit("move_node");
  return report;
}

RepairReport DynamicWcds::deactivate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "deactivate: bad id " << u);
  if (!active_[u]) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/deactivate");
  const auto ball = search({&u, 1}, 3);
  const std::vector<NodeId> old_region(ball.begin(), ball.end());
  active_[u] = false;
  unlink_node(u);
  const RepairReport report = repair({u}, old_region);
  event_timer.stop();
  record_event("deactivate", report);
  maybe_audit("deactivate");
  return report;
}

RepairReport DynamicWcds::activate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "activate: bad id " << u);
  if (active_[u]) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/activate");
  active_[u] = true;
  link_node(u);
  const RepairReport report = repair({u}, {u});
  event_timer.stop();
  record_event("activate", report);
  maybe_audit("activate");
  return report;
}

RepairReport DynamicWcds::watchdog() {
  if (audit().ok()) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/watchdog");
  // Recovery mode: seed the repair everywhere.  Costlier than the 3-hop
  // event path, but only reached when the maintained state was perturbed
  // outside the event interface.
  // The table may be unsound here, so it is not trusted to say which
  // bridges are stale: every bridge is dropped and re-derived.
  std::size_t entries = 0;  // two per bridge
  for (auto& row : bridges_) entries += std::exchange(row, {}).size();
  std::vector<NodeId> everyone(points_.size());
  for (NodeId u = 0; u < points_.size(); ++u) everyone[u] = u;
  RepairReport report = repair(everyone, everyone);
  report.bridges_changed += entries / 2;
  event_timer.stop();
  record_event("watchdog", report);
  maybe_audit("watchdog");
  return report;
}

void DynamicWcds::record_event(const char* event,
                               const RepairReport& report) const {
  if (recorder_ == nullptr) return;
  auto& metrics = recorder_->metrics();
  metrics.add("maintenance/events");
  metrics.add(std::string("maintenance/events/") + event);
  metrics.add("maintenance/demoted", report.demoted);
  metrics.add("maintenance/promoted", report.promoted);
  metrics.add("maintenance/bridges_changed", report.bridges_changed);
  // The 3-hop locality witness: region sizes stay flat as n grows.
  metrics.observe("maintenance/region_size",
                  static_cast<double>(report.region_size));
}

void DynamicWcds::maybe_audit(const char* event) const {
  if (!check::audits_enabled()) return;
  // Snapshot protocol state as a WcdsResult over the active UDG.
  const std::size_t n = points_.size();
  core::WcdsResult result;
  result.mask.assign(n, false);
  result.color.assign(n, core::NodeColor::kGray);
  result.dominators = dominators();
  for (NodeId u : result.dominators) {
    result.mask[u] = true;
    result.color[u] = core::NodeColor::kBlack;
  }
  for (NodeId u = 0; u < n; ++u) {
    if (mis_[u]) result.mis_dominators.push_back(u);
  }
  for (NodeId u : result.dominators) {
    if (!mis_[u]) result.additional_dominators.push_back(u);
  }
  check::AuditOptions options;
  options.unit_disk = true;  // the active graph is a UDG by construction
  options.active = &active_;
  check::audit_invariants(active_graph(), result, options);
  // The maintenance-specific contract on top of the paper invariants: every
  // 3-hop MIS pair holds a valid additional-dominator bridge, and no stored
  // bridge has gone stale.
  const Audit state = audit();
  WCDS_CHECK(state.bridges_complete,
             "Section 4.2 (maintenance): unbridged 3-hop MIS pair after "
                 << event);
  WCDS_CHECK(state.bridges_sound,
             "Section 4.2 (maintenance): stale or unmirrored bridge after "
                 << event);
}

Audit DynamicWcds::audit() const {
  Audit audit;
  const std::size_t n = points_.size();
  const graph::Graph& g = active_graph();

  // Independence + maximality over active nodes.
  audit.mis_independent = true;
  audit.mis_maximal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (!active_[u]) continue;
    if (mis_[u]) {
      for (NodeId v : g.neighbors(u)) {
        if (mis_[v]) audit.mis_independent = false;
      }
    } else {
      const auto row = g.neighbors(u);
      if (std::none_of(row.begin(), row.end(),
                       [&](NodeId v) { return mis_[v]; })) {
        audit.mis_maximal = false;
      }
    }
  }

  // Every 3-hop MIS pair bridged.  Pairs more than 3 hops apart need no
  // bridge, so a search bounded at 3 hops finds every pair to check.
  audit.bridges_complete = true;
  graph::BoundedBfs bfs;
  for (NodeId a = 0; a < n; ++a) {
    if (!mis_[a] || !active_[a]) continue;
    for (NodeId b : bfs.run(g, {&a, 1}, 3)) {
      if (b <= a || !mis_[b] || !active_[b] || bfs.distance(b) != 3) continue;
      const auto it = std::ranges::find_if(bridges_[a], partner_is(b));
      if (it == bridges_[a].end() || !bridge_valid(a, b, it->via)) {
        audit.bridges_complete = false;
      }
    }
  }

  // Every stored bridge valid, and mirrored exactly once in its partner's
  // row with the same via (so no row lists a partner twice either).
  audit.bridges_sound = true;
  for (NodeId a = 0; a < n; ++a) {
    for (const Bridge& bridge : bridges_[a]) {
      const auto& back = bridges_[bridge.partner];
      const auto mirror = std::ranges::find_if(back, partner_is(a));
      if (!bridge_valid(a, bridge.partner, bridge.via) ||
          mirror == back.end() || mirror->via != bridge.via ||
          std::ranges::count_if(back, partner_is(a)) != 1) {
        audit.bridges_sound = false;
      }
    }
  }

  // Weak connectivity of S + C per connected component (judged over active
  // nodes; singleton components are trivially fine).
  std::vector<bool> dom_mask(n, false);
  for (NodeId d : dominators()) dom_mask[d] = true;
  const auto weak = graph::weakly_induced_subgraph(g, dom_mask);
  const auto comp_g = graph::connected_components(g);
  const auto comp_w = graph::connected_components(weak);
  audit.weakly_connected = true;
  // Two nodes in one G-component must share a weak component.
  std::vector<std::uint32_t> rep(comp_g.count, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (!active_[u]) continue;
    auto& r = rep[comp_g.label[u]];
    if (r == kInvalidNode) {
      r = comp_w.label[u];
    } else if (r != comp_w.label[u]) {
      audit.weakly_connected = false;
    }
  }
  return audit;
}

}  // namespace wcds::maintenance
