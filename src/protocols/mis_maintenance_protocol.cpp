#include "protocols/mis_maintenance_protocol.h"

#include <algorithm>
#include <memory>

#include "check/check.h"

namespace wcds::protocols {

const char* mis_maintenance_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgColor: return "COLOR";
    default: return "?";
  }
}

void MisMaintenanceNode::on_start(sim::Context& ctx) {
  // Announce white so lower-ID-complete knowledge can accumulate; a node
  // with no lower-ID neighbors promotes immediately through reevaluate.
  ctx.broadcast(kMsgColor, {static_cast<std::uint32_t>(color_)});
  reevaluate(ctx);
}

void MisMaintenanceNode::on_receive(sim::Context& ctx,
                                    const sim::Message& msg) {
  if (msg.type != kMsgColor) return;
  // Topology changes only at quiescence, so the sender is still a neighbor.
  known_[msg.src] = static_cast<Color>(msg.payload[0]);
  reevaluate(ctx);
}

void MisMaintenanceNode::on_link_up(sim::Context& ctx,
                                    NodeId neighbor) {
  // Introduce ourselves to the newcomer; their introduction arrives the
  // same way.  Conflicts (black-black) resolve through reevaluate once the
  // colors land.
  ctx.unicast(neighbor, kMsgColor, {static_cast<std::uint32_t>(color_)});
}

void MisMaintenanceNode::on_link_down(sim::Context& ctx,
                                      NodeId neighbor) {
  known_.erase(neighbor);
  reevaluate(ctx);
}

bool MisMaintenanceNode::knows_black_neighbor(
    sim::Context& ctx) const {
  const auto row = ctx.neighbors();
  for (const auto& [v, c] : known_) {
    if (c == Color::kBlack && std::binary_search(row.begin(), row.end(), v)) {
      return true;
    }
  }
  return false;
}

bool MisMaintenanceNode::may_promote(sim::Context& ctx) const {
  // Promotion needs complete knowledge of every lower-ID neighbor, none of
  // them white (a white one may promote first) or black (we'd be gray).
  for (NodeId v : ctx.neighbors()) {
    if (v >= ctx.self()) continue;
    const auto it = known_.find(v);
    if (it == known_.end()) return false;
    if (it->second != Color::kGray) return false;
  }
  return true;
}

void MisMaintenanceNode::set_color(sim::Context& ctx, Color next) {
  if (color_ == next) return;
  color_ = next;
  ctx.broadcast(kMsgColor, {static_cast<std::uint32_t>(color_)});
}

void MisMaintenanceNode::reevaluate(sim::Context& ctx) {
  switch (color_) {
    case Color::kBlack: {
      // Conflict rule: the higher ID yields.
      for (const auto& [v, c] : known_) {
        if (c == Color::kBlack && v < ctx.self()) {
          set_color(ctx,
                    knows_black_neighbor(ctx) ? Color::kGray : Color::kWhite);
          // A demotion can re-trigger promotion logic below on later
          // messages; nothing more to do now.
          return;
        }
      }
      return;
    }
    case Color::kGray: {
      if (!knows_black_neighbor(ctx)) {
        set_color(ctx, Color::kWhite);
        // Fall through logically: a fresh white may promote at once.
        reevaluate(ctx);
      }
      return;
    }
    case Color::kWhite: {
      if (knows_black_neighbor(ctx)) {
        set_color(ctx, Color::kGray);
        return;
      }
      if (may_promote(ctx)) {
        set_color(ctx, Color::kBlack);
      }
      return;
    }
  }
}

void MisMaintenanceNode::reannounce(sim::Context& ctx) {
  ctx.broadcast(kMsgColor, {static_cast<std::uint32_t>(color_)});
  reevaluate(ctx);
}

namespace {

std::unique_ptr<fault::Injector> make_injector(const fault::Plan* faults,
                                               std::size_t node_count) {
  if (faults == nullptr) return nullptr;
  WCDS_REQUIRE(faults->link_overrides.empty(),
               "MisMaintenanceSession: link overrides name CSR slots, which "
               "do not survive a topology change");
  return std::make_unique<fault::Injector>(*faults, node_count);
}

}  // namespace

MisMaintenanceSession::MisMaintenanceSession(graph::Graph initial,
                                             const sim::DelayModel& delays,
                                             const fault::Plan* faults)
    : graph_(std::make_unique<graph::Graph>(std::move(initial))),
      injector_(make_injector(faults, graph_->node_count())),
      runtime_(
          *graph_,
          [](NodeId) { return std::make_unique<MisMaintenanceNode>(); },
          delays, nullptr, injector_.get()) {}

bool MisMaintenanceSession::stabilize(std::uint64_t max_events) {
  return runtime_.run(max_events).quiescent;
}

bool MisMaintenanceSession::update(graph::Graph next,
                                   std::uint64_t max_events) {
  auto staged = std::make_unique<graph::Graph>(std::move(next));
  runtime_.apply_topology(*staged);
  graph_ = std::move(staged);
  return stabilize(max_events);
}

bool MisMaintenanceSession::converged() const {
  const std::vector<bool> mask = mis_mask();
  for (NodeId u = 0; u < runtime_.node_count(); ++u) {
    const auto row = graph_->neighbors(u);
    if (mask[u]) {
      // Independence: no two adjacent dominators.
      for (NodeId v : row) {
        if (mask[v]) return false;
      }
    } else {
      // Domination: every non-dominator hears one (isolated nodes must
      // self-promote, so an isolated non-dominator is a liveness failure).
      const bool dominated =
          std::any_of(row.begin(), row.end(), [&](NodeId v) { return mask[v]; });
      if (!dominated) return false;
    }
  }
  return true;
}

bool MisMaintenanceSession::watchdog(std::size_t max_rounds,
                                     std::uint64_t max_events) {
  for (std::size_t round = 0; round < max_rounds; ++round) {
    if (converged()) return true;
    for (NodeId u = 0; u < runtime_.node_count(); ++u) {
      runtime_.with_node(u, [](sim::Context& ctx, sim::ProtocolNode& node) {
        static_cast<MisMaintenanceNode&>(node).reannounce(ctx);
      });
    }
    if (!stabilize(max_events)) return false;
  }
  return converged();
}

std::vector<bool> MisMaintenanceSession::mis_mask() const {
  std::vector<bool> mask(runtime_.node_count(), false);
  for (NodeId u = 0; u < runtime_.node_count(); ++u) {
    mask[u] =
        static_cast<const MisMaintenanceNode&>(runtime_.node(u)).is_dominator();
  }
  return mask;
}

}  // namespace wcds::protocols
