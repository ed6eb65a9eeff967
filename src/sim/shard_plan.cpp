#include "sim/shard_plan.h"

#include "check/check.h"
#include "geom/rng.h"
#include "graph/bfs.h"

namespace wcds::sim {

ShardPlan ShardPlan::build(const graph::Graph& g) {
  WCDS_REQUIRE(g.node_count() > 0, "ShardPlan: empty graph");
  const graph::Components components = graph::connected_components(g);
  ShardPlan plan;
  plan.label_ = components.label;
  const std::size_t n = g.node_count();
  const std::uint32_t k = components.count;
  // Counting sort by label; the scan ascends over node ids, so each shard's
  // member list comes out ascending — the on_start order Runtime needs.
  std::vector<std::uint32_t> sizes(k, 0);
  for (NodeId u = 0; u < n; ++u) ++sizes[plan.label_[u]];
  plan.offset_.assign(k + 1, 0);
  for (std::uint32_t c = 0; c < k; ++c) {
    plan.offset_[c + 1] = plan.offset_[c] + sizes[c];
  }
  plan.members_.resize(n);
  std::vector<std::uint32_t> cursor(plan.offset_.begin(),
                                    plan.offset_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    plan.members_[cursor[plan.label_[u]]++] = u;
  }
  return plan;
}

std::uint64_t ShardPlan::stream_seed(std::uint64_t seed,
                                     std::size_t c) const {
  if (shard_count() == 1) return seed;
  return shard_stream_seed(seed, static_cast<std::uint32_t>(c));
}

std::uint64_t shard_stream_seed(std::uint64_t seed, std::uint32_t component) {
  // Two SplitMix64 passes: the first whitens the run seed, the second splits
  // it per component.  SplitMix64 is designed exactly for deriving
  // decorrelated streams from consecutive seeds.
  geom::SplitMix64 whiten(seed);
  geom::SplitMix64 split(whiten.next() + component);
  return split.next();
}

}  // namespace wcds::sim
