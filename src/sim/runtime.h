// Discrete-event message-passing runtime over a unit-disk graph.
//
// Execution model:
//  - At time 0 every node's on_start runs (ascending id order).
//  - A transmission sent at time t is delivered after a per-recipient delay:
//    1 time unit under the default synchronous model, or a seeded random
//    delay in [min_delay, max_delay] under an asynchronous DelayModel.
//    Per-(sender, recipient) FIFO order is always preserved (radio links
//    do not reorder).
//  - Deliveries are processed in (time, global send sequence) order, so runs
//    are exactly reproducible given the seed.
//  - The run ends at quiescence (no pending deliveries) or when the event
//    budget trips (runaway-protocol guard).
//  - Between quiescent runs the topology may change (apply_topology): every
//    added or removed link fires on_link_up / on_link_down on both of its
//    endpoints, and the next run() resumes the clock and the statistics.
//
// Cost accounting matches the paper: message complexity = number of
// transmissions (a broadcast is ONE message); time complexity = the delivery
// time of the last message.
//
// Hot-path design (docs/PERFORMANCE.md): the event queue is allocation-free
// per delivery.  A broadcast interns its payload ONCE in a recycled message
// pool; each of the d recipients queues a 16-byte POD event referencing the
// shared slot.  Deliveries and local timers share one queue under every
// delay model: a ring of time buckets indexed by due time mod W (a power of
// two), each bucket a FIFO list of fixed-size chunks from one recycled
// chunk pool.  Every event is appended to the bucket of its due time when
// it is created, so each bucket is in creation order and popping bucket
// after bucket yields the (time, creation) order that makes runs
// reproducible.  Storage is the ring's W buckets plus the chunks of the
// events in flight, at most one partly filled chunk per non-empty bucket;
// W starts at 2 (unit delays need no more) and doubles when an event lands
// W or more steps from the drain cursor.  The original std::map-based
// queue survives outside the library, as the test-only
// sim::ReferenceRuntime (tests/oracle/), mirroring
// udg::build_udg_reference.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/rng.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/fault_hook.h"
#include "sim/message.h"

namespace wcds::sim {

// Message-delay regime.  The default is the paper's synchronous unit-delay
// analysis model; the asynchronous variant stresses protocols with seeded
// random per-delivery delays (FIFO per link) — the paper's algorithms are
// event-driven and must stay correct under it.
struct DelayModel {
  SimTime min_delay = 1;
  SimTime max_delay = 1;
  std::uint64_t seed = 0;  // draws are deterministic given the seed

  [[nodiscard]] static DelayModel unit() { return {}; }
  [[nodiscard]] static DelayModel uniform(SimTime min_delay, SimTime max_delay,
                                          std::uint64_t seed) {
    return {min_delay, max_delay, seed};
  }
  [[nodiscard]] bool is_unit() const {
    return min_delay == 1 && max_delay == 1;
  }
};

// Default event budget of Runtime::run (runaway-protocol guard).  Applies
// per component sub-run under sharded execution: shards cannot share a
// remaining-budget counter without reintroducing cross-shard coupling.
inline constexpr std::uint64_t kDefaultMaxEvents = 100'000'000;

// Overload guard of the event queue: a timer armed more than this many
// steps out, or any event that would spread the pending events over more
// than this many steps, fails a check::CheckError instead of growing the
// ring to match.  The largest delay in the repo is the hardened transport's
// 64-step retransmit cap.
inline constexpr SimTime kQueueHorizon = SimTime{1} << 20;

class Runtime;

// Per-delivery view handed to protocol handlers; the only way a node may act
// on the network.  The send methods are virtual so a transport shim (the
// fault layer's FrameContext) can interpose on a wrapped node's sends while
// inheriting the read-only accessors, and so another simulator (the
// test-only ReferenceRuntime) can route them to its own queue.
class Context {
 public:
  Context(Runtime& runtime, NodeId self, SimTime now);
  virtual ~Context() = default;
  Context(const Context&) = default;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::span<const NodeId> neighbors() const;
  [[nodiscard]] std::size_t node_count() const;

  // One radio transmission heard by every neighbor.
  virtual void broadcast(MessageType type,
                         std::vector<std::uint32_t> payload = {});

  // One transmission addressed to a single neighbor (must be adjacent).
  virtual void unicast(NodeId dst, MessageType type,
                       std::vector<std::uint32_t> payload = {});

  // Arm a local timer: ProtocolNode::on_timer(token) fires on this node
  // after `delay` time units.  Timers are node-internal clocks — they do
  // not touch the radio, are never faulted (a crashed node's CPU keeps
  // ticking; only its radio is off), and count neither as transmissions nor
  // deliveries.  Only Runtime keeps timers: under another simulator, or
  // with a delay past kQueueHorizon, this fails with a check::CheckError.
  void set_timer(SimTime delay, std::uint64_t token);

 protected:
  // For a simulator other than Runtime: reads come from `g`, and the
  // subclass must override broadcast and unicast.
  Context(const graph::Graph& g, NodeId self, SimTime now)
      : runtime_(nullptr), graph_(&g), self_(self), now_(now) {}

 private:
  Runtime* runtime_;  // null under another simulator
  const graph::Graph* graph_;
  NodeId self_;
  SimTime now_;
};

// A protocol's per-node state machine.
class ProtocolNode {
 public:
  virtual ~ProtocolNode() = default;
  virtual void on_start(Context& ctx) = 0;
  virtual void on_receive(Context& ctx, const Message& msg) = 0;
  // Fires for timers armed via Context::set_timer; protocols that never arm
  // one (everything outside the fault transport) keep the default no-op.
  virtual void on_timer(Context& ctx, std::uint64_t token) {
    static_cast<void>(ctx);
    static_cast<void>(token);
  }
  // Fire on both endpoints of every link Runtime::apply_topology removes or
  // adds; protocols that assume a fixed topology keep the no-op defaults.
  virtual void on_link_down(Context& ctx, NodeId neighbor) {
    static_cast<void>(ctx);
    static_cast<void>(neighbor);
  }
  virtual void on_link_up(Context& ctx, NodeId neighbor) {
    static_cast<void>(ctx);
    static_cast<void>(neighbor);
  }
};

struct RunStats {
  std::uint64_t transmissions = 0;          // paper's message complexity
  std::uint64_t deliveries = 0;             // per-recipient copies
  std::uint64_t timer_fires = 0;            // local timer events (no radio)
  SimTime completion_time = 0;              // paper's time complexity
  // Post-run summary, not touched during delivery.
  std::map<MessageType, std::uint64_t> per_type;  // wcds-lint: allow(hot-path-alloc)
  bool quiescent = false;                   // false iff the budget tripped

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

class Runtime {
 public:
  // Called once per node at construction, never during delivery.
  using NodeFactory = std::function<std::unique_ptr<ProtocolNode>(NodeId)>;  // wcds-lint: allow(hot-path-alloc)

  // `faults` (null by default) injects deterministic message loss,
  // duplication, delay noise and node crashes into the delivery path; see
  // sim/fault_hook.h for the contract.  The null-hook path is
  // byte-identical to a runtime built without the parameter (guarded by
  // tests/fault_test.cpp).
  //
  // `active` (empty by default = every node) restricts the runtime to a
  // subset of the graph's nodes: only active nodes get a ProtocolNode and an
  // on_start, in the given order.  The subset must be closed under adjacency
  // (a union of whole connected components, e.g. one ShardPlan shard) —
  // messages to nodes outside it would reach a null state machine.
  Runtime(const graph::Graph& g, const NodeFactory& factory,
          const DelayModel& delays = DelayModel::unit(),
          obs::Recorder* recorder = nullptr, FaultHook* faults = nullptr,
          std::span<const NodeId> active = {});

  // Observability hook.  Null (the default) records nothing and keeps the
  // hot path at a single predicted branch per event, so benchmark timings
  // stay honest; non-null feeds message-level TraceEvents (send/deliver
  // with queue depth) to the recorder's sink and folds the terminal
  // RunStats into its metrics after run().  Install before run().
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::Recorder* recorder() const noexcept { return recorder_; }

  // Run until quiescence.  `max_events` guards against protocol bugs.
  // Stats (including the metrics fold into the recorder) are produced even
  // when the budget trips — those are exactly the runs worth inspecting.
  // on_start fires on the first call only; a later call resumes at the last
  // delivery time, and the stats and recorded metrics stay cumulative.
  RunStats run(std::uint64_t max_events = kDefaultMaxEvents);

  // Replace the topology at quiescence.  `next` must have the same node
  // count and outlive its use by this runtime; no delivery or timer may be
  // pending, and the runtime must span every node.  Links that survive keep
  // their FIFO clocks.  With `next` already installed, fires on_link_down
  // for every removed edge, then on_link_up for every added one: edges
  // (u, v), u < v, in ascending order, each on u and then on v.  Their
  // sends are delivered by the next run().
  void apply_topology(const graph::Graph& next);

  // Run `fn(ctx, node)` on node u at the current simulated time (the last
  // delivery's), the hook a watchdog uses to nudge a protocol between runs.
  // Its sends are delivered by the next run(), in (time, creation) order
  // with whatever a budget trip left queued, even when a timer that fired
  // later has moved the drain cursor past their due time.
  template <typename Fn>
  void with_node(NodeId u, Fn&& fn) {
    Context ctx(*this, u, stats_.completion_time);
    fn(ctx, *nodes_[u]);
  }

  [[nodiscard]] const graph::Graph& topology() const { return *graph_; }
  // Cumulative over every run() so far.
  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] ProtocolNode& node(NodeId u) { return *nodes_[u]; }
  [[nodiscard]] const ProtocolNode& node(NodeId u) const { return *nodes_[u]; }
  // Null-safe lookup: nullptr for nodes outside the active subset.
  [[nodiscard]] const ProtocolNode* node_if(NodeId u) const {
    return nodes_[u].get();
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] FaultHook* fault_hook() const noexcept { return fault_; }
  // Deepest queue observed while a recorder was installed (0 otherwise); the
  // shard merge layer folds these with set_max across components.
  [[nodiscard]] std::uint64_t max_queue_depth() const noexcept {
    return max_queue_depth_;
  }

 private:
  friend class Context;

  // One queued event: a delivery of a pooled message to its recipient, or
  // a local timer of a node.  The payload lives once in the message pool no
  // matter how many recipients a broadcast fans out to.
  struct Event {
    std::uint64_t token;  // timer token, or the message pool slot
    NodeId node;          // recipient, or the node that armed the timer
    bool timer;
  };
  // Buckets keep their events in fixed-size chunks from one recycled chunk
  // pool, so a drain reads contiguous memory and a bucket holds at most one
  // partly filled chunk beyond its events.
  static constexpr std::uint32_t kChunkEvents = 64;
  static constexpr std::uint32_t kNoChunk = ~std::uint32_t{0};
  struct Chunk {
    std::array<Event, kChunkEvents> events;
    std::uint32_t next;  // next chunk of the same bucket, or of the free list
  };
  // The events due at one time step: a FIFO list of chunks, popped from
  // `head` and appended to `tail`.
  struct Bucket {
    std::uint32_t head = kNoChunk;  // kNoChunk while the bucket is empty
    std::uint32_t tail = kNoChunk;
    std::uint32_t read = 0;   // next event to pop in the head chunk
    std::uint32_t write = 0;  // events written to the tail chunk
  };

  // One interned transmission.  `refs` counts outstanding deliveries; the
  // slot (and its payload capacity) is recycled when the last one lands.
  struct PoolSlot {
    Message message;
    std::uint32_t refs = 0;
  };

  void send(NodeId src, SimTime now, NodeId dst, MessageType type,
            std::vector<std::uint32_t> payload);
  // Fault-plan slow path: per-copy drop/duplicate/jitter decisions.
  void send_faulty(NodeId src, SimTime now, NodeId dst, MessageType type,
                   std::vector<std::uint32_t>&& payload);
  // Enqueue one copy for `recipient` honoring the fault hook; returns the
  // number of copies scheduled (0 dropped, 1, or 2 duplicated).
  std::uint32_t enqueue_faulty_copy(std::uint32_t slot, NodeId recipient,
                                    std::size_t link_slot, SimTime now);

  // Pool bookkeeping.
  [[nodiscard]] std::uint32_t acquire_slot(NodeId src, NodeId dst,
                                           MessageType type,
                                           std::vector<std::uint32_t>&& payload,
                                           std::uint32_t refs);
  void add_ref(std::uint32_t slot);
  void release_ref(std::uint32_t slot);

  // Appends an event to the bucket of time `at`.
  void push(SimTime at, const Event& event);
  [[nodiscard]] std::uint32_t take_chunk();
  // push's slow path for an event outside [cursor_, cursor_ + W): widens
  // the ring or moves the cursor back so that it holds every pending event
  // and the new one.
  void fit(SimTime at);

  // The bodies of the drain loop: a delivery applies receive_blocked, the
  // stats, the recorder and release_ref; a timer calls on_timer.
  void deliver(const Event& event);
  void fire_timer(const Event& event);

  void count_type(MessageType type);

  // Recording slow paths, only reached with a non-null recorder.
  void record_send(NodeId src, NodeId dst, MessageType type, SimTime now);
  void record_deliver(SimTime time, NodeId src, NodeId recipient,
                      MessageType type);

  // Delivery time for one copy, honoring the delay model and per-link FIFO.
  // `link_slot` is the sender's directed CSR slot for the recipient
  // (graph::Graph::edge_slot), indexing the flat link-clock vector.
  [[nodiscard]] SimTime delivery_time(std::size_t link_slot, SimTime now);

  // Fold the dense per-type counters into stats_ and record metrics; runs on
  // both the quiescent and the budget-tripped exit path.
  void finalize_stats(bool quiescent);

  const graph::Graph* graph_;
  // Indexed by global NodeId; null outside the active subset.
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;
  // on_start order; empty means all nodes in ascending id order.
  std::vector<NodeId> active_;

  // The event queue.  Every pending event is due in [cursor_, cursor_ + W),
  // W = ring_.size() a power of two, and sits in bucket ring_[time & (W-1)]
  // in creation order.  Drained chunks go back to the free_chunk_ list, so
  // the pool follows the events in flight.
  std::vector<Bucket> ring_ = std::vector<Bucket>(2);
  std::vector<Chunk> chunks_;
  std::uint32_t free_chunk_ = kNoChunk;
  SimTime cursor_ = 0;  // the step being drained
  std::size_t pending_ = 0;             // deliveries and timers queued
  std::size_t pending_deliveries_ = 0;  // the trace's queue_depth

  // Message pool.  A deque gives stable references: a handler may broadcast
  // (growing the pool) while it still reads the pooled message it was
  // handed.
  std::deque<PoolSlot> pool_;
  std::vector<std::uint32_t> free_slots_;

  RunStats stats_;
  // What finalize_stats already folded into the recorder, so a resumed run
  // adds only its own share.
  RunStats recorded_;
  // Dense per-type transmission counters, folded into stats_.per_type at the
  // end of run() (a map lookup per send is hot-path poison).
  std::vector<std::uint64_t> per_type_counts_;
  bool started_ = false;
  DelayModel delays_;
  geom::Xoshiro256ss delay_rng_;
  // Last scheduled delivery per directed link, indexed by the sender's CSR
  // adjacency slot; only materialized under an async delay model.
  std::vector<SimTime> link_clock_;
  obs::Recorder* recorder_ = nullptr;
  FaultHook* fault_ = nullptr;
  std::uint64_t max_queue_depth_ = 0;  // tracked only while recording
};

// Fold one finished run's terminal stats into `recorder`'s metrics (null =
// no-op): the sim/* counter/gauge family of docs/OBSERVABILITY.md.  Shared
// by Runtime's exit path and merge_shards (sim/sharded.h), so a sharded run
// records exactly what the equivalent single-queue run would.
void record_run_metrics(obs::Recorder* recorder, const RunStats& stats,
                        std::uint64_t max_queue_depth);

}  // namespace wcds::sim
