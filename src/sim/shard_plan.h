// Component shard plan for the parallel simulation runner (sim/sharded.h).
//
// Nodes in different connected components can never exchange messages, so a
// run over a multi-component topology decomposes exactly into independent
// per-component sub-runs.  The plan is a CSR over components: shard c owns
// the nodes labeled c by graph::connected_components, in ascending id order.
// Component labels are assigned in discovery order (BFS from the smallest
// unvisited id), so shard order — and therefore the deterministic merge
// order — is itself a pure function of the topology.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::sim {

class ShardPlan {
 public:
  [[nodiscard]] static ShardPlan build(const graph::Graph& g);

  [[nodiscard]] std::size_t shard_count() const { return offset_.size() - 1; }

  // Members of shard c, ascending node ids.
  [[nodiscard]] std::span<const NodeId> shard(std::size_t c) const {
    return std::span<const NodeId>(members_).subspan(
        offset_[c], offset_[c + 1] - offset_[c]);
  }

  // The RNG stream seed shard c draws from (delay model and fault injector
  // alike).  A one-shard plan is the whole run, so its lone shard keeps the
  // run's own `seed`; with two or more shards, shard c draws
  // shard_stream_seed(seed, c).
  [[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                          std::size_t c) const;

  // Component label per node (0..shard_count()-1).
  [[nodiscard]] const std::vector<std::uint32_t>& labels() const {
    return label_;
  }

 private:
  std::vector<std::uint32_t> label_;
  std::vector<std::uint32_t> offset_;  // shard_count()+1 entries
  std::vector<NodeId> members_;        // grouped by shard, ascending within
};

// Deterministic per-shard RNG stream seed: a pure function of the run seed
// and the component index, independent of thread schedule and of how many
// other components exist (ShardPlan::stream_seed applies it whenever there
// are two or more).  Both the delay model and the fault injector of shard c
// reseed through it, so their draws replay exactly whether shards run
// serially or in parallel.
[[nodiscard]] std::uint64_t shard_stream_seed(std::uint64_t seed,
                                              std::uint32_t component);

}  // namespace wcds::sim
