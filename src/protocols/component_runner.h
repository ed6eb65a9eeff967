// The one driver behind run_algorithm1 and run_algorithm2.
//
// Both distributed constructions are purely message-driven, so a run over
// any deployment is the composition of independent per-component sub-runs
// (sim/sharded.h).  A connected graph is simply a one-shard plan, which runs
// inline on the caller with the run's own seeds (ShardPlan::stream_seed).
#pragma once

#include <cstddef>
#include <functional>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/runtime.h"
#include "sim/shard_plan.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::protocols {

// Called once per node after its shard quiesced, with the protocol's own
// node (a fault::HardenedNode wrapper already unwrapped), its id and its
// shard index.  It runs on the shard's worker, so it may write only that
// node's or that shard's slots.
using NodeVisitor =
    std::function<void(const sim::ProtocolNode& node, NodeId u,
                       std::size_t shard)>;

// Runs `make_node`'s protocol over every shard of `plan` on `threads`
// (0 = WCDS_THREADS env / hardware default) and returns the merged stats.
// A non-null `faults` wraps each node in fault::HardenedNode and gives each
// shard its own fault::Injector.  `recorder` (null = none) receives the
// merged sim/* metrics and, under faults, the summed fault/* counters, each
// exactly once.  A run that trips the event budget fails a state check
// naming `caller`.
[[nodiscard]] sim::RunStats run_components(
    const graph::Graph& g, const sim::ShardPlan& plan,
    const sim::Runtime::NodeFactory& make_node, const sim::DelayModel& delays,
    obs::Recorder* recorder, const fault::Plan* faults, std::size_t threads,
    const char* caller, const NodeVisitor& visit);

}  // namespace wcds::protocols
