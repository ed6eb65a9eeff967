// sim::ReferenceRuntime: the slow, obviously-correct twin of sim::Runtime,
// kept for differential tests and the A5 benchmark the way
// udg::build_udg_reference is kept beside the grid-bucket construction.
//
// It is the simulator's original event queue: a std::map keyed by
// (time, global send sequence) holding one full Message copy per recipient.
// It runs the paper's fault-free cost model only — on_start in ascending id
// order, deliveries in (time, seq) order under the same DelayModel draws and
// per-link FIFO clocks as Runtime, a broadcast counted as one transmission —
// so a protocol replayed on both must give the same trace, RunStats and
// final node states.  There is no fault hook, no event budget, no topology
// change and no active subset, and there are no timers: a node that arms
// one gets a check::CheckError.  A traced run emits kSend / kDeliver events
// with the queue depth at exactly the points where Runtime does, so traces
// compare event by event.
//
// Only tests/ and bench/ link this library; no production path contains
// the map queue.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "geom/rng.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "sim/message.h"
#include "sim/runtime.h"

namespace wcds::sim {

class ReferenceRuntime {
 public:
  ReferenceRuntime(const graph::Graph& g, const Runtime::NodeFactory& factory,
                   const DelayModel& delays = DelayModel::unit(),
                   obs::TraceSink* trace = nullptr);

  // Fires every on_start, then delivers until no message is in flight; call
  // it once.  A protocol that never goes quiet never returns.
  RunStats run();

  [[nodiscard]] const ProtocolNode& node(NodeId u) const { return *nodes_[u]; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

 private:
  class OracleContext;

  struct Pending {
    Message message;
    NodeId recipient;
  };

  void send(NodeId src, SimTime now, NodeId dst, MessageType type,
            std::vector<std::uint32_t> payload);
  // Same draws, in the same order, as Runtime::delivery_time.
  [[nodiscard]] SimTime delivery_time(std::size_t link_slot, SimTime now);
  void enqueue(SimTime at, const Message& message, NodeId recipient);
  void record(obs::TraceEvent::Kind kind, SimTime time, NodeId src,
              NodeId dst, MessageType type);

  const graph::Graph& graph_;
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;
  DelayModel delays_;
  geom::Xoshiro256ss delay_rng_;
  // Last scheduled delivery per directed CSR slot (async delays only).
  std::vector<SimTime> link_clock_;
  std::map<std::pair<SimTime, std::uint64_t>, Pending> queue_;
  std::uint64_t send_seq_ = 0;
  RunStats stats_;
  obs::TraceSink* trace_;
};

}  // namespace wcds::sim
