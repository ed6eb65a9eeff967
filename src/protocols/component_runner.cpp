#include "protocols/component_runner.h"

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "check/check.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/sharded.h"

namespace wcds::protocols {

sim::RunStats run_components(const graph::Graph& g,
                             const sim::ShardPlan& plan,
                             const sim::Runtime::NodeFactory& make_node,
                             const sim::DelayModel& delays,
                             obs::Recorder* recorder,
                             const fault::Plan* faults, std::size_t threads,
                             const char* caller, const NodeVisitor& visit) {
  const bool hardened = faults != nullptr;
  const sim::Runtime::NodeFactory factory =
      hardened ? sim::Runtime::NodeFactory([&make_node](NodeId u) {
        return std::make_unique<fault::HardenedNode>(make_node(u));
      })
               : make_node;
  const std::size_t shard_count = plan.shard_count();
  const bool record = recorder != nullptr;
  const bool capture_trace = record && recorder->trace_sink() != nullptr;

  // Every slot is written by exactly one shard task.
  std::vector<sim::ShardOutcome> outcomes(shard_count);
  struct FaultTally {
    fault::Injector::Counters counters;
    fault::TransportStats transport;
  };
  std::vector<FaultTally> tallies(hardened ? shard_count : 0);
  sim::for_each_shard(shard_count, threads, [&](std::size_t c) {
    const std::span<const NodeId> members = plan.shard(c);
    std::optional<fault::Injector> injector;
    if (hardened) {
      fault::Plan shard_faults = *faults;
      shard_faults.seed = plan.stream_seed(faults->seed, c);
      injector.emplace(std::move(shard_faults), g.node_count());
    }
    sim::DelayModel shard_delays = delays;
    shard_delays.seed = plan.stream_seed(delays.seed, c);
    outcomes[c] = sim::run_shard(
        g, members, factory, shard_delays, injector ? &*injector : nullptr,
        record, capture_trace, sim::kDefaultMaxEvents,
        [&](sim::Runtime& runtime) {
          for (NodeId u : members) {
            const sim::ProtocolNode& node = runtime.node(u);
            visit(hardened
                      ? static_cast<const fault::HardenedNode&>(node).inner()
                      : node,
                  u, c);
          }
          if (hardened) {
            tallies[c] = {injector->counters(),
                          fault::collect_transport_stats(runtime)};
          }
        });
  });

  const sim::RunStats stats = sim::merge_shards(outcomes, recorder);
  WCDS_REQUIRE_STATE(stats.quiescent, caller << ": event budget exceeded");
  if (hardened) {
    FaultTally total;
    for (const FaultTally& tally : tallies) {
      total.counters += tally.counters;
      total.transport += tally.transport;
    }
    fault::Injector::record_counters(recorder, total.counters);
    fault::record_transport_metrics(total.transport, recorder);
  }
  return stats;
}

}  // namespace wcds::protocols
