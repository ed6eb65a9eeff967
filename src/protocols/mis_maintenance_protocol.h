// Distributed MIS maintenance (paper, Section 4.2).
//
// "The key technique in our approach is to maintain the MIS in the unit-disk
//  graph at all time" — the paper defers the full procedure to a later
// paper; this protocol implements that key technique as messages, on
// sim::Runtime with its topology changed between quiescent runs.  It is a
// self-stabilizing maximal-independent-set protocol driven entirely by COLOR
// announcements:
//
//   COLOR(c)   broadcast whenever a node's color changes (and unicast to a
//              newly heard neighbor on link-up).
//
// Rules, evaluated on every receipt / link event:
//   * a black (MIS) node hearing COLOR(black) from a lower-ID neighbor
//     demotes (conflicts arise only from link-ups and message races);
//   * a demoted or orphaned node becomes gray if it knows a black neighbor,
//     else white;
//   * a gray node whose last known black neighbor vanished becomes white;
//   * a white node that knows the colors of all its lower-ID neighbors,
//     none of them white or black, promotes to black.
//
// After quiescence the black nodes form an MIS of the *current* topology:
// independence because conflicts self-resolve toward the lower ID,
// maximality because a white node with no black neighbor eventually has its
// locally-minimal member promote.  The additional-dominator (bridge) repair
// stays in maintenance::DynamicWcds — this protocol is the distributed
// heart the paper names.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "sim/runtime.h"

namespace wcds::protocols {

enum MisMaintenanceMessageType : sim::MessageType {
  kMsgColor = 60,  // payload: [color]
};

// Trace name for a MisMaintenanceMessageType value ("?" when unknown).
[[nodiscard]] const char* mis_maintenance_message_name(sim::MessageType type);

class MisMaintenanceNode final : public sim::ProtocolNode {
 public:
  enum class Color : std::uint32_t { kWhite = 0, kGray = 1, kBlack = 2 };

  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;
  void on_link_up(sim::Context& ctx, NodeId neighbor) override;
  void on_link_down(sim::Context& ctx, NodeId neighbor) override;

  [[nodiscard]] Color color() const { return color_; }
  [[nodiscard]] bool is_dominator() const { return color_ == Color::kBlack; }

  // Watchdog nudge: re-announce the current color (repairing neighbors'
  // knowledge holes left by lost COLOR messages) and re-evaluate the local
  // rules.  Safe to call at any quiescent point; a no-op network-wise when
  // nothing was lost (the announcement is re-sent but changes no state).
  void reannounce(sim::Context& ctx);

 private:
  void set_color(sim::Context& ctx, Color next);
  void reevaluate(sim::Context& ctx);
  [[nodiscard]] bool knows_black_neighbor(sim::Context& ctx) const;
  [[nodiscard]] bool may_promote(sim::Context& ctx) const;

  Color color_ = Color::kWhite;
  std::map<NodeId, Color> known_;  // last color heard per current neighbor
};

// Harness: drive a node set through a sequence of topologies, letting the
// protocol re-stabilize after each change.  The session owns the current
// topology.
class MisMaintenanceSession {
 public:
  // `faults` (null = the perfect radio) installs a fault::Injector over the
  // whole session, like core::BuildOptions::faults.  Under loss,
  // stabilize() may quiesce on a *wrong* state; run the watchdog afterwards
  // to restore convergence.  Link overrides are rejected: they name CSR
  // slots, which do not survive a topology change.
  explicit MisMaintenanceSession(
      graph::Graph initial,
      const sim::DelayModel& delays = sim::DelayModel::unit(),
      const fault::Plan* faults = nullptr);

  // Stabilize on the current topology; returns false if the event budget
  // tripped before quiescence.
  bool stabilize(std::uint64_t max_events = 10'000'000);

  // Change the topology (link events fire), then stabilize.
  bool update(graph::Graph next, std::uint64_t max_events = 10'000'000);

  // True when the black nodes form an MIS of the current topology
  // (independent + every node dominated) — the liveness predicate the
  // watchdog drives toward.
  [[nodiscard]] bool converged() const;

  // Liveness watchdog: while not converged(), have every node re-announce
  // its color and re-stabilize, up to `max_rounds` rounds.  Lost COLOR
  // messages leave knowledge holes that quiescence alone cannot see; the
  // re-announcements close them.  Returns converged().
  bool watchdog(std::size_t max_rounds = 8,
                std::uint64_t max_events = 10'000'000);

  [[nodiscard]] std::vector<bool> mis_mask() const;
  // Cumulative over the whole session.
  [[nodiscard]] const sim::RunStats& stats() const { return runtime_.stats(); }

 private:
  // Heap-held so the runtime's pointer to it survives the swap in update().
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<fault::Injector> injector_;  // null on the perfect radio
  sim::Runtime runtime_;
};

}  // namespace wcds::protocols
