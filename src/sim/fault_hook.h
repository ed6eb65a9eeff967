// Fault-injection hook for the sim runtime's delivery path.
//
// The runtime itself models a perfect radio: every transmission is heard
// exactly once by every intended recipient, in per-link FIFO order.  A
// FaultHook, installed at Runtime construction, lets an experiment corrupt
// that model deterministically — dropping or duplicating individual
// delivery copies, stretching their delay, and silencing crashed nodes —
// while the null hook (the default) keeps the delivery path at a single
// predicted branch, exactly like the null obs::Recorder (docs/ROBUSTNESS.md
// carries the determinism argument).
//
// The concrete implementation lives in src/fault/ (fault::Injector, driven
// by a seeded fault::Plan); the runtime only sees this interface, which
// keeps wcds_sim free of a dependency on the fault layer.
//
// Call discipline (the runtime guarantees, implementations may rely on):
//  - send_blocked() is consulted once per transmission, before any copy is
//    scheduled; a blocked sender's transmission vanishes entirely (radio
//    off) and is not counted as a transmission.
//  - drop_copy() / duplicate_copy() / extra_delay() are consulted once per
//    recipient copy, in deterministic enqueue order, so a seeded
//    implementation replays exactly.
//  - receive_blocked() is consulted at delivery time; a blocked recipient's
//    copy disappears (its radio is off) without touching RunStats.
//  - A jittered copy joins the runtime's one event queue like any other, in
//    (due time, creation) order, so jitter changes which order a run
//    delivers in, never whether it replays.  A delay that would spread the
//    queue over more than kQueueHorizon steps (sim/runtime.h) fails a
//    check::CheckError.
#pragma once

#include <cstddef>

#include "graph/types.h"
#include "sim/message.h"

namespace wcds::sim {

class FaultHook {
 public:
  virtual ~FaultHook() = default;

  // The sender's radio is off at `now`: suppress the whole transmission.
  [[nodiscard]] virtual bool send_blocked(NodeId src, SimTime now) = 0;

  // Lose this one recipient copy.  `link_slot` is the sender's directed CSR
  // slot for the recipient (graph::Graph::edge_slot).
  [[nodiscard]] virtual bool drop_copy(std::size_t link_slot) = 0;

  // Deliver this copy twice (the duplicate draws its own extra_delay()).
  [[nodiscard]] virtual bool duplicate_copy(std::size_t link_slot) = 0;

  // Additional delivery delay for one copy; may reorder a link (the
  // hardened transport restores FIFO, see src/fault/hardened.h).
  [[nodiscard]] virtual SimTime extra_delay() = 0;

  // The recipient's radio is off at `at`: the copy is lost on arrival.
  [[nodiscard]] virtual bool receive_blocked(NodeId recipient, SimTime at) = 0;
};

}  // namespace wcds::sim
