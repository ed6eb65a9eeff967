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
// pool; each of the d recipients enqueues a 24-byte POD PendingDelivery
// referencing the shared slot.  The queue is chosen once, at construction,
// from a bound on delay: under unit delays with a fault hook whose
// max_extra_delay() is 0 (or no hook) every delivery lands at now+1, so a
// two-bucket rotating calendar replaces the priority queue entirely; under
// random delays or jitter a flat binary min-heap over a contiguous vector
// keyed by (time, seq) is used.  Local timers live in their own (time, seq)
// heap that the drain loop merges with either queue.  The original
// std::map-based queue survives outside the library, as the test-only
// sim::ReferenceRuntime (tests/oracle/), mirroring udg::build_udg_reference.
#pragma once

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
  // deliveries.  Only Runtime keeps timers: under another simulator this
  // fails with a check::CheckError.
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
  // sim/fault_hook.h for the contract.  The queue is picked here, once:
  // unit delays plus a hook whose max_extra_delay() is 0 keep the two-bucket
  // calendar (every copy still lands one step out); jitter or an async delay
  // model select the (time, seq) min-heap.  Both pop in (time, seq) order,
  // so the choice never changes a trace.  The null-hook path is
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

  // Run `fn(ctx, node)` on node u at the current simulated time, the hook a
  // watchdog uses to nudge a protocol between runs.  Its sends are delivered
  // by the next run().
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
  // True when deliveries run on the two-bucket unit-delay calendar rather
  // than the (time, seq) heap; fixed at construction.
  [[nodiscard]] bool uses_calendar() const noexcept { return calendar_; }
  // Deepest queue observed while a recorder was installed (0 otherwise); the
  // shard merge layer folds these with set_max across components.
  [[nodiscard]] std::uint64_t max_queue_depth() const noexcept {
    return max_queue_depth_;
  }

 private:
  friend class Context;

  // POD event record; the payload lives once in the message pool no matter
  // how many recipients a broadcast fans out to.
  struct PendingDelivery {
    SimTime time;
    std::uint64_t seq;   // global send order; makes processing deterministic
    std::uint32_t slot;  // message pool slot (shared across a broadcast)
    NodeId recipient;
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

  // Flat-queue primitives.
  void enqueue_flat(const PendingDelivery& delivery);
  // Calendar slow path for a delivery not due one step after the current
  // one: the first send after an idle stretch, or a send made between runs.
  void enqueue_off_step(const PendingDelivery& delivery);
  void heap_push(const PendingDelivery& delivery);
  [[nodiscard]] PendingDelivery heap_pop();

  // The one delivery body of the flat drain loop, calendar or heap: applies
  // receive_blocked, the stats, the recorder and release_ref.
  void deliver(PendingDelivery delivery);
  void fire_next_timer();

  // Local timer events; ordered with deliveries by the shared (time, seq)
  // key, so runs stay exactly reproducible.
  struct TimerEvent {
    SimTime time;
    std::uint64_t seq;
    std::uint64_t token;
    NodeId node;
  };
  void schedule_timer(NodeId node, SimTime at, std::uint64_t token);
  void timer_push(const TimerEvent& event);
  [[nodiscard]] TimerEvent timer_pop();

  void count_type(MessageType type);

  // Outstanding deliveries on the calendar or the heap.
  [[nodiscard]] std::size_t queue_size() const;

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

  // Unit-delay calendar: every in-flight delivery is due either
  // at the time step being drained (bucket_now_[bucket_pos_..], due at
  // bucket_time_) or one step later (bucket_next_, appended in send order ==
  // seq order).  swap() + clear() per step keeps the capacity, so steady
  // state allocates nothing.
  std::vector<PendingDelivery> bucket_now_;
  std::vector<PendingDelivery> bucket_next_;
  std::size_t bucket_pos_ = 0;
  SimTime bucket_time_ = 0;

  // Async or jitter: binary min-heap over a contiguous vector,
  // keyed by (time, seq).  seq is unique, so the order is total and
  // deterministic.
  std::vector<PendingDelivery> heap_;

  // Timer min-heap, same (time, seq) key; only populated by Context::
  // set_timer (the fault transport's retransmit clock).  The drain loop
  // fires a timer whenever it is due before the next delivery.
  std::vector<TimerEvent> timer_heap_;

  // Message pool.  A deque gives stable references: a handler may broadcast
  // (growing the pool) while it still reads the pooled message it was
  // handed.
  std::deque<PoolSlot> pool_;
  std::vector<std::uint32_t> free_slots_;

  std::uint64_t send_seq_ = 0;
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
  // Deliveries run on the calendar (else the heap); chosen by the ctor.
  bool calendar_ = false;
  std::uint64_t max_queue_depth_ = 0;  // tracked only while recording
};

// Fold one finished run's terminal stats into `recorder`'s metrics (null =
// no-op): the sim/* counter/gauge family of docs/OBSERVABILITY.md.  Shared
// by Runtime's exit path and merge_shards (sim/sharded.h), so a sharded run
// records exactly what the equivalent single-queue run would.
void record_run_metrics(obs::Recorder* recorder, const RunStats& stats,
                        std::uint64_t max_queue_depth);

}  // namespace wcds::sim
