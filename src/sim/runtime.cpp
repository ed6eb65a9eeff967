#include "sim/runtime.h"

#include <algorithm>
#include <string>

#include "check/check.h"

namespace wcds::sim {
namespace {

// Strict total order on (time, seq); seq is unique per event (deliveries and
// timers share the counter, so the merged order is total).
[[nodiscard]] bool earlier(const auto& a, const auto& b) {
  return a.time != b.time ? a.time < b.time : a.seq < b.seq;
}

// Contiguous binary min-heap primitives shared by the delivery heap and the
// timer heap (both keyed by `earlier`).
template <typename T>
void sift_up(std::vector<T>& heap) {
  std::size_t i = heap.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(heap[i], heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

template <typename T>
T pop_min(std::vector<T>& heap) {
  const T top = heap.front();
  const T last = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n > 0) {
    std::size_t i = 0;
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t child = left;
      if (left + 1 < n && earlier(heap[left + 1], heap[left])) {
        child = left + 1;
      }
      if (!earlier(heap[child], last)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = last;
  }
  return top;
}

}  // namespace

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
  runtime_->schedule_timer(self_, now_ + delay, token);
}

Runtime::Runtime(const graph::Graph& g, const NodeFactory& factory,
                 const DelayModel& delays, obs::Recorder* recorder,
                 FaultHook* faults, std::span<const NodeId> active)
    : graph_(&g), active_(active.begin(), active.end()), delays_(delays),
      delay_rng_(delays.seed + 1), recorder_(recorder), fault_(faults) {
  WCDS_REQUIRE(delays_.min_delay >= 1 && delays_.max_delay >= delays_.min_delay,
               "Runtime: invalid delay model");
  // Unit delays without jitter put every delivery exactly one step out —
  // all the two-bucket calendar needs, whatever else the hook does.
  calendar_ = delays_.is_unit() &&
              (fault_ == nullptr || fault_->max_extra_delay() == 0);
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

void Runtime::enqueue_flat(const PendingDelivery& delivery) {
  if (!calendar_) {
    heap_push(delivery);
  } else if (delivery.time == bucket_time_ + 1) [[likely]] {
    // Unit delays: a send made while the current step drains is due exactly
    // one step later, so it belongs to the next bucket; appending preserves
    // seq order within the step.
    bucket_next_.push_back(delivery);
  } else {
    enqueue_off_step(delivery);
  }
}

void Runtime::enqueue_off_step(const PendingDelivery& delivery) {
  if (bucket_pos_ == bucket_now_.size() && bucket_next_.empty()) {
    // Nothing in flight (a timer fired after an idle stretch, or the run is
    // between calls): re-anchor the calendar one step before the delivery.
    bucket_time_ = delivery.time - 1;
    bucket_next_.push_back(delivery);
    return;
  }
  // A send made between runs lands at completion_time + 1, which trails the
  // calendar when the last events before a budget trip were timers or
  // blocked receives.  Due on the current step, its seq is the largest yet,
  // so it sorts last in that step.
  WCDS_REQUIRE_STATE(delivery.time == bucket_time_,
                     "Runtime: delivery at " << delivery.time
                         << " cannot join the unit-delay calendar at step "
                         << bucket_time_ << " (a hook's extra_delay() above "
                         << "its max_extra_delay(), or a send between runs "
                         << "behind a budget-tripped calendar)");
  bucket_now_.push_back(delivery);
}

void Runtime::heap_push(const PendingDelivery& delivery) {
  heap_.push_back(delivery);
  sift_up(heap_);
}

Runtime::PendingDelivery Runtime::heap_pop() { return pop_min(heap_); }

void Runtime::timer_push(const TimerEvent& event) {
  timer_heap_.push_back(event);
  sift_up(timer_heap_);
}

Runtime::TimerEvent Runtime::timer_pop() { return pop_min(timer_heap_); }

void Runtime::schedule_timer(NodeId node, SimTime at, std::uint64_t token) {
  timer_push({at, send_seq_, token, node});
  ++send_seq_;
}

std::size_t Runtime::queue_size() const {
  // Pending local timers are node-internal clocks, not queued deliveries,
  // so they do not count toward the depth.
  if (calendar_) {
    return (bucket_now_.size() - bucket_pos_) + bucket_next_.size();
  }
  return heap_.size();
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
        const SimTime at = delivery_time(base + i, now);
        enqueue_flat({at, send_seq_, slot, neighbors[i]});
        ++send_seq_;
      }
    }
  } else {
    const std::size_t link_slot = graph_->edge_slot(src, dst);
    WCDS_REQUIRE_STATE(link_slot != graph::Graph::kNoSlot,
                       "Runtime: unicast " << src << " -> " << dst
                                           << " to a non-neighbor");
    const std::uint32_t slot = acquire_slot(src, dst, type, std::move(payload), 1);
    const SimTime at = delivery_time(link_slot, now);
    enqueue_flat({at, send_seq_, slot, dst});
    ++send_seq_;
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
    WCDS_DCHECK(jitter <= fault_->max_extra_delay(),
                "FaultHook: extra_delay() above max_extra_delay()");
    add_ref(slot);
    enqueue_flat({delivery_time(link_slot, now) + jitter, send_seq_, slot,
                  recipient});
    ++send_seq_;
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
  max_queue_depth_ = std::max<std::uint64_t>(max_queue_depth_, queue_size());
  if (obs::TraceSink* sink = recorder_->trace_sink()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kSend;
    event.time = now;
    event.src = src;
    event.dst = dst == kBroadcastDst ? obs::kTraceBroadcastDst : dst;
    event.message_type = type;
    event.queue_depth = queue_size();
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
    event.queue_depth = queue_size();
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
  WCDS_REQUIRE_STATE(queue_size() == 0 && timer_heap_.empty(),
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

void Runtime::deliver(PendingDelivery delivery) {
  if (fault_ != nullptr &&
      fault_->receive_blocked(delivery.recipient, delivery.time)) [[unlikely]] {
    // Recipient radio is off: the copy evaporates without touching delivery
    // stats or the recipient's state.
    release_ref(delivery.slot);
    return;
  }
  ++stats_.deliveries;
  stats_.completion_time = delivery.time;
  PoolSlot& entry = pool_[delivery.slot];
  if (recorder_ != nullptr) [[unlikely]] {
    record_deliver(delivery.time, entry.message.src, delivery.recipient,
                   entry.message.type);
  }
  Context ctx(*this, delivery.recipient, delivery.time);
  nodes_[delivery.recipient]->on_receive(ctx, entry.message);
  release_ref(delivery.slot);
}

void Runtime::fire_next_timer() {
  const TimerEvent timer = timer_pop();
  ++stats_.timer_fires;
  Context ctx(*this, timer.node, timer.time);
  nodes_[timer.node]->on_timer(ctx, timer.token);
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
  while (true) {
    // The earliest in-flight delivery, or null when none is.  The calendar
    // steps to its next bucket only once no timer is due before it, so a
    // timer's sends always land one step after the current one.
    const PendingDelivery* head = nullptr;
    if (calendar_) {
      if (bucket_pos_ == bucket_now_.size() && !bucket_next_.empty() &&
          (timer_heap_.empty() ||
           timer_heap_.front().time >= bucket_next_.front().time)) {
        // swap + clear keeps both capacities, so steady state allocates
        // nothing.
        bucket_now_.clear();
        bucket_pos_ = 0;
        std::swap(bucket_now_, bucket_next_);
        bucket_time_ = bucket_now_.front().time;
      }
      if (bucket_pos_ < bucket_now_.size()) head = &bucket_now_[bucket_pos_];
    } else if (!heap_.empty()) {
      head = &heap_.front();
    }
    // Deliveries and timers share the (time, seq) key; seq is globally
    // unique, so the pick is deterministic.
    const bool timer_next =
        !timer_heap_.empty() &&
        (head == nullptr || earlier(timer_heap_.front(), *head));
    if (head == nullptr && !timer_next) break;
    if (++events > max_events) {
      finalize_stats(false);
      return stats_;
    }
    if (timer_next) {
      fire_next_timer();
    } else if (calendar_) {
      deliver(bucket_now_[bucket_pos_++]);
    } else {
      deliver(heap_pop());
    }
  }
  finalize_stats(true);
  return stats_;
}

}  // namespace wcds::sim
