#include "routing/clusterhead_routing.h"

#include <algorithm>
#include <string>

namespace wcds::routing {

namespace {
constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;

// Scratch for the router's own queries (next_clusterhead, overlay_distance,
// route); the serving engine keeps its own.
OverlaySearch& thread_search() {
  thread_local OverlaySearch search;
  return search;
}
}  // namespace

AsymmetricOverlayError::AsymmetricOverlayError(NodeId from_head,
                                               NodeId to_head)
    : std::logic_error("ClusterheadRouter: overlay edge " +
                       std::to_string(from_head) + " -> " +
                       std::to_string(to_head) + " has no reverse edge"),
      from_(from_head),
      to_(to_head) {}

void OverlaySearch::begin(std::size_t heads) {
  if (visit_.size() < heads) {
    visit_.resize(heads);
    order_.reserve(heads);
  }
  if (++epoch_ == 0) {  // wrapped: forget every stale stamp
    std::fill(visit_.begin(), visit_.end(), Visit{});
    epoch_ = 1;
  }
  order_.clear();
}

ClusterheadRouter::ClusterheadRouter(const graph::Graph& g,
                                     core::Algorithm2View wcds)
    : g_(g) {
  const std::size_t n = g.node_count();
  heads_ = wcds.result().mis_dominators;  // ascending by construction
  index_.assign(n, kNoHead);
  for (std::uint32_t i = 0; i < heads_.size(); ++i) index_[heads_[i]] = i;

  // Clusterhead assignment: self for heads, lowest-ID 1-hop MIS-dominator
  // otherwise (the 1HopDomList is sorted).
  const core::DominatorLists& lists = wcds.lists();
  clusterhead_.assign(n, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (index_[u] != kNoHead) {
      clusterhead_[u] = u;
    } else if (!lists.one_hop[u].empty()) {
      clusterhead_[u] = lists.one_hop[u].front();
    } else {
      throw std::invalid_argument(
          "ClusterheadRouter: node without a 1-hop dominator (S must "
          "dominate)");
    }
  }

  // Overlay edges: 2-hop pairs from the 2HopDomLists of the heads, 3-hop
  // pairs from the (bidirectional) 3HopDomLists Algorithm II populated.
  // Rows keep insertion order, first entry per target wins.  By Lemma 2 a
  // row holds at most 47 heads, so the duplicate scans are O(1) per entry.
  offsets_.reserve(heads_.size() + 1);
  offsets_.push_back(0);
  const auto add_edge = [&](NodeId b, NodeId via1, NodeId via2) {
    const std::uint32_t to = index_[b];
    if (std::find(targets_.begin() + offsets_.back(), targets_.end(), to) !=
        targets_.end()) {
      return;
    }
    targets_.push_back(to);
    legs_.push_back({via1, via2});
  };
  for (NodeId a : heads_) {
    for (const core::TwoHopEntry& e : lists.two_hop[a]) {
      add_edge(e.dom, e.via, kInvalidNode);
    }
    for (const core::ThreeHopEntry& e : lists.three_hop[a]) {
      add_edge(e.dom, e.via1, e.via2);
    }
    offsets_.push_back(static_cast<std::uint32_t>(targets_.size()));
  }
  targets_.shrink_to_fit();
  legs_.shrink_to_fit();

  // Next hops are found by searching from the destination, which walks
  // edges backwards: every edge needs its reverse.
  for (std::uint32_t a = 0; a < heads_.size(); ++a) {
    for (const std::uint32_t b : overlay_row(a)) {
      const auto back = overlay_row(b);
      if (std::find(back.begin(), back.end(), a) == back.end()) {
        throw AsymmetricOverlayError(heads_[a], heads_[b]);
      }
    }
  }
}

std::size_t ClusterheadRouter::bytes() const {
  return clusterhead_.capacity() * sizeof(NodeId) +
         heads_.capacity() * sizeof(NodeId) +
         index_.capacity() * sizeof(std::uint32_t) +
         offsets_.capacity() * sizeof(std::uint32_t) +
         targets_.capacity() * sizeof(std::uint32_t) +
         legs_.capacity() * sizeof(Leg);
}

std::uint32_t ClusterheadRouter::search(std::uint32_t root, std::uint32_t stop,
                                        OverlaySearch& scratch) const {
  scratch.begin(heads_.size());
  scratch.discover(root, 0);
  if (root == stop) return 0;
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    const std::uint32_t a = scratch[i];
    const std::uint32_t next = scratch.level(a) + 1;
    for (const std::uint32_t b : overlay_row(a)) {
      if (scratch.seen(b)) continue;
      scratch.discover(b, next);
      if (b == stop) return next;
    }
  }
  return kNoHead;
}

std::size_t ClusterheadRouter::step_toward_root(
    std::uint32_t at, const OverlaySearch& scratch) const {
  const std::uint32_t want = scratch.level(at) - 1;
  const auto row = overlay_row(at);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (scratch.at_level(row[i], want)) return i;
  }
  throw std::logic_error("step_toward_root: head not reached by the search");
}

NodeId ClusterheadRouter::next_clusterhead(NodeId from_head,
                                           NodeId to_head) const {
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kInvalidNode;
  if (from == to) return from_head;
  OverlaySearch& scratch = thread_search();
  if (search(to, from, scratch) == kNoHead) return kInvalidNode;
  return heads_[overlay_row(from)[step_toward_root(from, scratch)]];
}

std::uint32_t ClusterheadRouter::overlay_distance(NodeId from_head,
                                                  NodeId to_head) const {
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kNoHead;
  return search(from, to, thread_search());
}

ClusterheadRouter::Leg ClusterheadRouter::overlay_leg_compact(
    NodeId from_head, NodeId to_head) const {
  const std::uint32_t from = index_[from_head];
  const auto row = overlay_row(from);
  const auto it = std::find(row.begin(), row.end(), index_[to_head]);
  if (it == row.end()) {
    throw std::logic_error("overlay_leg_compact: not an overlay edge");
  }
  return overlay_row_legs(from)[static_cast<std::size_t>(it - row.begin())];
}

std::vector<NodeId> ClusterheadRouter::overlay_leg(NodeId from_head,
                                                   NodeId to_head) const {
  const Leg leg = overlay_leg_compact(from_head, to_head);
  std::vector<NodeId> hop_path;
  hop_path.push_back(leg.via1);
  if (leg.via2 != kInvalidNode) hop_path.push_back(leg.via2);
  hop_path.push_back(to_head);
  return hop_path;
}

Route ClusterheadRouter::route(NodeId src, NodeId dst) const {
  Route r;
  r.path.push_back(src);
  if (src == dst) {
    r.delivered = true;
    return r;
  }
  if (g_.has_edge(src, dst)) {  // adjacent pairs use the direct edge
    r.path.push_back(dst);
    r.delivered = true;
    return r;
  }
  const NodeId src_head = clusterhead_[src];
  const NodeId dst_head = clusterhead_[dst];
  if (src != src_head) r.path.push_back(src_head);

  // One search from the destination head labels every head on the way; each
  // hop is then the table step toward it.
  std::uint32_t at = index_[src_head];
  const std::uint32_t goal = index_[dst_head];
  OverlaySearch& scratch = thread_search();
  if (search(goal, at, scratch) == kNoHead) {
    return r;  // overlay disconnected: undeliverable
  }
  while (at != goal) {
    const std::size_t i = step_toward_root(at, scratch);
    const Leg leg = overlay_row_legs(at)[i];
    at = overlay_row(at)[i];
    r.path.push_back(leg.via1);
    if (leg.via2 != kInvalidNode) r.path.push_back(leg.via2);
    r.path.push_back(heads_[at]);
  }
  if (dst != dst_head) r.path.push_back(dst);
  r.delivered = true;
  return r;
}

}  // namespace wcds::routing
