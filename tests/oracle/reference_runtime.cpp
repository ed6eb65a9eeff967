#include "oracle/reference_runtime.h"

#include <algorithm>

#include "check/check.h"

namespace wcds::sim {

// Reads come from the graph through the base Context; sends go to the map.
class ReferenceRuntime::OracleContext final : public Context {
 public:
  OracleContext(ReferenceRuntime& runtime, NodeId self, SimTime now)
      : Context(runtime.graph_, self, now), runtime_(runtime) {}

  void broadcast(MessageType type,
                 std::vector<std::uint32_t> payload) override {
    runtime_.send(self(), now(), kBroadcastDst, type, std::move(payload));
  }
  void unicast(NodeId dst, MessageType type,
               std::vector<std::uint32_t> payload) override {
    runtime_.send(self(), now(), dst, type, std::move(payload));
  }

 private:
  ReferenceRuntime& runtime_;
};

ReferenceRuntime::ReferenceRuntime(const graph::Graph& g,
                                   const Runtime::NodeFactory& factory,
                                   const DelayModel& delays,
                                   obs::TraceSink* trace)
    : graph_(g), delays_(delays), delay_rng_(delays.seed + 1), trace_(trace) {
  WCDS_REQUIRE(delays_.min_delay >= 1 && delays_.max_delay >= delays_.min_delay,
               "ReferenceRuntime: invalid delay model");
  if (!delays_.is_unit()) link_clock_.assign(g.adjacency_slots(), 0);
  nodes_.reserve(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    nodes_.push_back(factory(u));
    WCDS_REQUIRE(nodes_.back() != nullptr,
                 "ReferenceRuntime: factory returned null node for " << u);
  }
}

SimTime ReferenceRuntime::delivery_time(std::size_t link_slot, SimTime now) {
  if (delays_.is_unit()) return now + 1;
  SimTime at = now + delays_.min_delay +
               delay_rng_.next_below(delays_.max_delay - delays_.min_delay + 1);
  at = std::max(at, link_clock_[link_slot] + 1);
  link_clock_[link_slot] = at;
  return at;
}

void ReferenceRuntime::enqueue(SimTime at, const Message& message,
                               NodeId recipient) {
  queue_.emplace(std::pair{at, send_seq_}, Pending{message, recipient});
  ++send_seq_;
}

void ReferenceRuntime::send(NodeId src, SimTime now, NodeId dst,
                            MessageType type,
                            std::vector<std::uint32_t> payload) {
  ++stats_.transmissions;
  ++stats_.per_type[type];
  const Message message{src, dst, type, std::move(payload)};
  if (dst == kBroadcastDst) {
    const auto neighbors = graph_.neighbors(src);
    const std::size_t base = graph_.row_begin(src);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      enqueue(delivery_time(base + i, now), message, neighbors[i]);
    }
  } else {
    const std::size_t link_slot = graph_.edge_slot(src, dst);
    WCDS_REQUIRE_STATE(link_slot != graph::Graph::kNoSlot,
                       "ReferenceRuntime: unicast " << src << " -> " << dst
                                                    << " to a non-neighbor");
    enqueue(delivery_time(link_slot, now), message, dst);
  }
  record(obs::TraceEvent::Kind::kSend, now, src, dst, type);
}

void ReferenceRuntime::record(obs::TraceEvent::Kind kind, SimTime time,
                              NodeId src, NodeId dst, MessageType type) {
  if (trace_ == nullptr) return;
  obs::TraceEvent event;
  event.kind = kind;
  event.time = time;
  event.src = src;
  event.dst = dst == kBroadcastDst ? obs::kTraceBroadcastDst : dst;
  event.message_type = type;
  event.queue_depth = queue_.size();
  trace_->on_event(event);
}

RunStats ReferenceRuntime::run() {
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    OracleContext ctx(*this, u, 0);
    nodes_[u]->on_start(ctx);
  }
  while (!queue_.empty()) {
    const auto first = queue_.begin();
    const SimTime time = first->first.first;
    Pending delivery = std::move(first->second);
    queue_.erase(first);
    ++stats_.deliveries;
    stats_.completion_time = time;
    record(obs::TraceEvent::Kind::kDeliver, time, delivery.message.src,
           delivery.recipient, delivery.message.type);
    OracleContext ctx(*this, delivery.recipient, time);
    nodes_[delivery.recipient]->on_receive(ctx, delivery.message);
  }
  stats_.quiescent = true;
  return stats_;
}

}  // namespace wcds::sim
