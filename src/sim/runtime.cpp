#include "sim/runtime.h"

#include <algorithm>
#include <string>

#include "check/check.h"

namespace wcds::sim {

Context::Context(Runtime& runtime, NodeId self, SimTime now)
    : runtime_(&runtime), graph_(runtime.graph_), self_(self), now_(now) {}

std::span<const NodeId> Context::neighbors() const {
  return graph_->neighbors(self_);
}

std::size_t Context::node_count() const { return graph_->node_count(); }

void Context::broadcast(MessageType type, std::vector<std::uint32_t> payload) {
  runtime_->send(self_, now_, kBroadcastDst, type, std::move(payload));
}

void Context::unicast(NodeId dst, MessageType type,
                      std::vector<std::uint32_t> payload) {
  runtime_->send(self_, now_, dst, type, std::move(payload));
}

void Context::set_timer(SimTime delay, std::uint64_t token) {
  WCDS_CHECK(runtime_ != nullptr,
             "Context::set_timer: node " << self_ << " armed a timer under a "
                                         << "simulator without timers");
  // Checked before the addition, which a delay near 2^64 would wrap.
  WCDS_CHECK(delay <= kQueueHorizon,
             "Context::set_timer: node " << self_ << " armed a timer "
                                         << delay << " steps out, past the "
                                         << kQueueHorizon << "-step horizon");
  runtime_->push(now_ + delay, {token, self_, true});
}

Runtime::Runtime(const graph::Graph& g, const NodeFactory& factory,
                 const DelayModel& delays, obs::Recorder* recorder,
                 FaultHook* faults, std::span<const NodeId> active)
    : graph_(&g), active_(active.begin(), active.end()), delays_(delays),
      delay_rng_(delays.seed + 1), recorder_(recorder), fault_(faults) {
  WCDS_REQUIRE(delays_.min_delay >= 1 && delays_.max_delay >= delays_.min_delay,
               "Runtime: invalid delay model");
  if (!delays_.is_unit()) {
    // Zero-initialized clocks need no first-send branch: every real delivery
    // time is >= 1, so max(at, 0 + 1) leaves a first send untouched.
    link_clock_.assign(graph_->adjacency_slots(), 0);
  }
  nodes_.resize(g.node_count());
  if (active_.empty()) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      nodes_[u] = factory(u);
      WCDS_REQUIRE(nodes_[u] != nullptr,
                   "Runtime: factory returned null node for " << u);
    }
  } else {
    for (NodeId u : active_) {
      WCDS_REQUIRE(u < g.node_count() && nodes_[u] == nullptr,
                   "Runtime: invalid or repeated active node " << u);
      nodes_[u] = factory(u);
      WCDS_REQUIRE(nodes_[u] != nullptr,
                   "Runtime: factory returned null node for " << u);
    }
  }
}

SimTime Runtime::delivery_time(std::size_t link_slot, SimTime now) {
  SimTime delay = delays_.min_delay;
  if (!delays_.is_unit()) {
    delay += delay_rng_.next_below(delays_.max_delay - delays_.min_delay + 1);
  }
  SimTime at = now + delay;
  if (!delays_.is_unit()) {
    // Radio links never reorder: a later send on the same link arrives
    // strictly after every earlier one.
    at = std::max(at, link_clock_[link_slot] + 1);
    link_clock_[link_slot] = at;
  }
  return at;
}

void Runtime::count_type(MessageType type) {
  if (type >= per_type_counts_.size()) per_type_counts_.resize(type + 1, 0);
  ++per_type_counts_[type];
}

std::uint32_t Runtime::acquire_slot(NodeId src, NodeId dst, MessageType type,
                                    std::vector<std::uint32_t>&& payload,
                                    std::uint32_t refs) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  PoolSlot& entry = pool_[slot];
  entry.message.src = src;
  entry.message.dst = dst;
  entry.message.type = type;
  entry.message.payload = std::move(payload);
  entry.refs = refs;
  return slot;
}

void Runtime::add_ref(std::uint32_t slot) { ++pool_[slot].refs; }

void Runtime::release_ref(std::uint32_t slot) {
  PoolSlot& entry = pool_[slot];
  WCDS_DCHECK(entry.refs > 0, "Runtime: pool slot over-released");
  if (--entry.refs == 0) free_slots_.push_back(slot);
}

void Runtime::push(SimTime at, const Event& event) {
  // Unsigned: an event due before the cursor takes the slow path too.
  if (at - cursor_ >= ring_.size()) [[unlikely]] fit(at);
  // Appending keeps the bucket in creation order, and an event is created
  // after every event already queued.
  Bucket& bucket = ring_[at & (ring_.size() - 1)];
  if (bucket.head == kNoChunk) {
    bucket.head = bucket.tail = take_chunk();
    bucket.read = bucket.write = 0;
  } else if (bucket.write == kChunkEvents) {
    const std::uint32_t chunk = take_chunk();
    chunks_[bucket.tail].next = chunk;
    bucket.tail = chunk;
    bucket.write = 0;
  }
  chunks_[bucket.tail].events[bucket.write++] = event;
  ++pending_;
  if (!event.timer) ++pending_deliveries_;
}

std::uint32_t Runtime::take_chunk() {
  if (free_chunk_ == kNoChunk) {
    chunks_.emplace_back();
    return static_cast<std::uint32_t>(chunks_.size() - 1);
  }
  const std::uint32_t chunk = free_chunk_;
  free_chunk_ = chunks_[chunk].next;
  return chunk;
}

void Runtime::fit(SimTime at) {
  // The due times the ring must hold: [low, high].  An event due before the
  // cursor is a with_node send behind a cursor that later timers moved on;
  // it moves the cursor back.
  const SimTime low = std::min(cursor_, at);
  SimTime high = std::max(cursor_, at);
  if (pending_ > 0) {
    // The latest pending due time: the last non-empty bucket of the window.
    SimTime latest = cursor_ + ring_.size() - 1;
    while (ring_[latest & (ring_.size() - 1)].head == kNoChunk) --latest;
    high = std::max(high, latest);
  }
  WCDS_CHECK(high - low <= kQueueHorizon,
             "Runtime: an event due at " << at << " would spread the queue "
                 << "over [" << low << ", " << high << "], more than "
                 << kQueueHorizon << " steps");
  if (pending_ == 0) {
    // Nothing to move: re-anchor the cursor on the event.
    cursor_ = at;
    return;
  }
  std::size_t width = ring_.size();
  while (width <= high - low) width *= 2;
  if (width != ring_.size()) {
    // Each bucket holds one due time, so growing moves whole buckets.
    std::vector<Bucket> grown(width);
    for (SimTime t = cursor_; t < cursor_ + ring_.size(); ++t) {
      grown[t & (width - 1)] = ring_[t & (ring_.size() - 1)];
    }
    ring_ = std::move(grown);
  }
  cursor_ = low;
}

void Runtime::send(NodeId src, SimTime now, NodeId dst, MessageType type,
                   std::vector<std::uint32_t> payload) {
  if (fault_ != nullptr) [[unlikely]] {
    // A crashed sender's radio is off: the transmission never happens, so
    // it is not part of the paper's message complexity either.
    if (fault_->send_blocked(src, now)) return;
    ++stats_.transmissions;
    count_type(type);
    send_faulty(src, now, dst, type, std::move(payload));
    return;
  }
  ++stats_.transmissions;
  count_type(type);
  if (dst == kBroadcastDst) {
    const auto neighbors = graph_->neighbors(src);
    if (!neighbors.empty()) {
      // One interned payload, d POD queue records.
      const std::uint32_t slot =
          acquire_slot(src, dst, type, std::move(payload),
                       static_cast<std::uint32_t>(neighbors.size()));
      const std::size_t base = graph_->row_begin(src);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        push(delivery_time(base + i, now), {slot, neighbors[i], false});
      }
    }
  } else {
    const std::size_t link_slot = graph_->edge_slot(src, dst);
    WCDS_REQUIRE_STATE(link_slot != graph::Graph::kNoSlot,
                       "Runtime: unicast " << src << " -> " << dst
                                           << " to a non-neighbor");
    const std::uint32_t slot = acquire_slot(src, dst, type, std::move(payload), 1);
    push(delivery_time(link_slot, now), {slot, dst, false});
  }
  if (recorder_ != nullptr) [[unlikely]] record_send(src, dst, type, now);
}

std::uint32_t Runtime::enqueue_faulty_copy(std::uint32_t slot,
                                           NodeId recipient,
                                           std::size_t link_slot,
                                           SimTime now) {
  if (fault_->drop_copy(link_slot)) return 0;
  const std::uint32_t copies = fault_->duplicate_copy(link_slot) ? 2U : 1U;
  for (std::uint32_t copy = 0; copy < copies; ++copy) {
    // Each copy (the duplicate too) draws its own jitter, so duplicates may
    // overtake the original — exactly the reordering a hardened protocol
    // must survive.
    const SimTime jitter = fault_->extra_delay();
    add_ref(slot);
    push(delivery_time(link_slot, now) + jitter, {slot, recipient, false});
  }
  return copies;
}

void Runtime::send_faulty(NodeId src, SimTime now, NodeId dst,
                          MessageType type,
                          std::vector<std::uint32_t>&& payload) {
  if (dst == kBroadcastDst) {
    const auto neighbors = graph_->neighbors(src);
    if (!neighbors.empty()) {
      // The extra guard ref keeps the slot alive across the loop and frees
      // it immediately when every copy was dropped.
      const std::uint32_t slot =
          acquire_slot(src, dst, type, std::move(payload), 1);
      const std::size_t base = graph_->row_begin(src);
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        enqueue_faulty_copy(slot, neighbors[i], base + i, now);
      }
      release_ref(slot);
    }
  } else {
    const std::size_t link_slot = graph_->edge_slot(src, dst);
    WCDS_REQUIRE_STATE(link_slot != graph::Graph::kNoSlot,
                       "Runtime: unicast " << src << " -> " << dst
                                           << " to a non-neighbor");
    const std::uint32_t slot =
        acquire_slot(src, dst, type, std::move(payload), 1);
    enqueue_faulty_copy(slot, dst, link_slot, now);
    release_ref(slot);
  }
  if (recorder_ != nullptr) [[unlikely]] record_send(src, dst, type, now);
}

void Runtime::record_send(NodeId src, NodeId dst, MessageType type,
                          SimTime now) {
  max_queue_depth_ =
      std::max<std::uint64_t>(max_queue_depth_, pending_deliveries_);
  if (obs::TraceSink* sink = recorder_->trace_sink()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kSend;
    event.time = now;
    event.src = src;
    event.dst = dst == kBroadcastDst ? obs::kTraceBroadcastDst : dst;
    event.message_type = type;
    event.queue_depth = pending_deliveries_;
    sink->on_event(event);
  }
}

void Runtime::record_deliver(SimTime time, NodeId src, NodeId recipient,
                             MessageType type) {
  if (obs::TraceSink* sink = recorder_->trace_sink()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kDeliver;
    event.time = time;
    event.src = src;
    event.dst = recipient;
    event.message_type = type;
    event.queue_depth = pending_deliveries_;
    sink->on_event(event);
  }
}

void record_run_metrics(obs::Recorder* recorder, const RunStats& stats,
                        std::uint64_t max_queue_depth) {
  if (recorder == nullptr) return;
  auto& metrics = recorder->metrics();
  metrics.add("sim/transmissions", stats.transmissions);
  metrics.add("sim/deliveries", stats.deliveries);
  metrics.set_max("sim/completion_time",
                  static_cast<double>(stats.completion_time));
  metrics.set_max("sim/max_queue_depth",
                  static_cast<double>(max_queue_depth));
  metrics.set("sim/quiescent", stats.quiescent ? 1.0 : 0.0);
  for (const auto& [type, count] : stats.per_type) {
    metrics.add("sim/msg_type/" + std::to_string(type), count);
  }
}

void Runtime::finalize_stats(bool quiescent) {
  stats_.quiescent = quiescent;
  for (std::size_t type = 0; type < per_type_counts_.size(); ++type) {
    if (per_type_counts_[type] != 0) {
      stats_.per_type[static_cast<MessageType>(type)] = per_type_counts_[type];
    }
  }
  if (recorder_ == nullptr) return;
  // Budget-tripped runs fold their stats too — those are exactly the runs
  // worth inspecting.  A resumed run folds only what it added, so the
  // recorded counters stay cumulative.
  RunStats added = stats_;
  added.transmissions -= recorded_.transmissions;
  added.deliveries -= recorded_.deliveries;
  for (auto& [type, count] : added.per_type) {
    const auto it = recorded_.per_type.find(type);
    if (it != recorded_.per_type.end()) count -= it->second;
  }
  record_run_metrics(recorder_, added, max_queue_depth_);
  recorded_ = stats_;
}

void Runtime::apply_topology(const graph::Graph& next) {
  WCDS_REQUIRE(next.node_count() == graph_->node_count(),
               "Runtime::apply_topology: node count " << next.node_count()
                   << " != " << graph_->node_count());
  WCDS_REQUIRE_STATE(pending_ == 0,
                     "Runtime::apply_topology: deliveries or timers pending");
  WCDS_REQUIRE_STATE(active_.empty(),
                     "Runtime::apply_topology: runtime restricted to a subset");
  // Merge-walk each node's old and new sorted rows: collect every changed
  // edge once (u < v) and carry surviving links' FIFO clocks to their new
  // CSR slots.
  std::vector<std::pair<NodeId, NodeId>> downs;
  std::vector<std::pair<NodeId, NodeId>> ups;
  std::vector<SimTime> clocks(delays_.is_unit() ? 0 : next.adjacency_slots(),
                              0);
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    const auto old_row = graph_->neighbors(u);
    const auto new_row = next.neighbors(u);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_row.size() || j < new_row.size()) {
      if (j == new_row.size() ||
          (i < old_row.size() && old_row[i] < new_row[j])) {
        if (u < old_row[i]) downs.emplace_back(u, old_row[i]);
        ++i;
      } else if (i == old_row.size() || new_row[j] < old_row[i]) {
        if (u < new_row[j]) ups.emplace_back(u, new_row[j]);
        ++j;
      } else {
        if (!clocks.empty()) {
          clocks[next.row_begin(u) + j] = link_clock_[graph_->row_begin(u) + i];
        }
        ++i;
        ++j;
      }
    }
  }
  link_clock_ = std::move(clocks);
  graph_ = &next;
  const SimTime now = stats_.completion_time;
  for (const auto& [u, v] : downs) {
    Context cu(*this, u, now);
    nodes_[u]->on_link_down(cu, v);
    Context cv(*this, v, now);
    nodes_[v]->on_link_down(cv, u);
  }
  for (const auto& [u, v] : ups) {
    Context cu(*this, u, now);
    nodes_[u]->on_link_up(cu, v);
    Context cv(*this, v, now);
    nodes_[v]->on_link_up(cv, u);
  }
}

void Runtime::deliver(const Event& event) {
  const auto slot = static_cast<std::uint32_t>(event.token);
  if (fault_ != nullptr && fault_->receive_blocked(event.node, cursor_))
      [[unlikely]] {
    // Recipient radio is off: the copy evaporates without touching delivery
    // stats or the recipient's state.
    release_ref(slot);
    return;
  }
  ++stats_.deliveries;
  stats_.completion_time = cursor_;
  PoolSlot& entry = pool_[slot];
  if (recorder_ != nullptr) [[unlikely]] {
    record_deliver(cursor_, entry.message.src, event.node, entry.message.type);
  }
  Context ctx(*this, event.node, cursor_);
  nodes_[event.node]->on_receive(ctx, entry.message);
  release_ref(slot);
}

void Runtime::fire_timer(const Event& event) {
  ++stats_.timer_fires;
  Context ctx(*this, event.node, cursor_);
  nodes_[event.node]->on_timer(ctx, event.token);
}

RunStats Runtime::run(std::uint64_t max_events) {
  if (!started_) {
    started_ = true;
    if (active_.empty()) {
      for (NodeId u = 0; u < nodes_.size(); ++u) {
        Context ctx(*this, u, 0);
        nodes_[u]->on_start(ctx);
      }
    } else {
      // A shard's members ascend within the component, so a member-restricted
      // sweep sees exactly the global on_start order restricted to the shard.
      for (NodeId u : active_) {
        Context ctx(*this, u, 0);
        nodes_[u]->on_start(ctx);
      }
    }
  }
  std::uint64_t events = 0;
  while (pending_ > 0) {
    Bucket& bucket = ring_[cursor_ & (ring_.size() - 1)];
    if (bucket.head == kNoChunk) {
      ++cursor_;
      continue;
    }
    if (++events > max_events) {
      finalize_stats(false);
      return stats_;
    }
    Chunk& chunk = chunks_[bucket.head];
    const Event event = chunk.events[bucket.read++];
    if (bucket.read ==
        (bucket.head == bucket.tail ? bucket.write : kChunkEvents)) {
      // Recycle a drained chunk before the handler runs: its sends may take
      // a chunk, and may grow the ring under `bucket`.
      const std::uint32_t drained = bucket.head;
      bucket.head = drained == bucket.tail ? kNoChunk : chunk.next;
      bucket.read = 0;
      chunk.next = free_chunk_;
      free_chunk_ = drained;
    }
    --pending_;
    if (event.timer) {
      fire_timer(event);
    } else {
      --pending_deliveries_;
      deliver(event);
    }
  }
  finalize_stats(true);
  return stats_;
}

}  // namespace wcds::sim
