// Algorithm I (paper, Section 4.1) — centralized reference.
//
// Build a spanning tree rooted at a leader, rank every node by
// (tree level, ID) lexicographically, and take the greedy lowest-rank-first
// MIS.  By Theorem 5 that MIS is itself a WCDS; every edge incident to a
// black node is a spanner edge.  Approximation ratio 5 (Lemma 7).
//
// The distributed counterpart lives in src/protocols/algorithm1_protocol.h;
// tests assert both produce the same dominator set.
#pragma once

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "wcds/wcds_result.h"

namespace wcds::core {

struct Algorithm1Options {
  // Leader/root of the spanning tree.  kInvalidNode selects the minimum-ID
  // node, the default leadership criterion the paper suggests.
  NodeId root = kInvalidNode;

  // The paper builds "an arbitrary spanning tree"; its distributed flood
  // yields a BFS tree under unit delays (the default here) but Theorems 4/5
  // hold for any tree, levels being *tree* distances.  The DFS variant
  // exercises that generality (and mirrors what asynchronous floods give).
  enum class Tree { kBfs, kDfs };
  Tree tree = Tree::kBfs;
};

// Precondition: g is connected (the virtual-backbone problem is defined on a
// connected network).  Throws std::invalid_argument otherwise.  Metrics and
// phase timings go to `recorder` (explicit, else the ambient
// obs::global_recorder(), else none).
[[nodiscard]] WcdsResult algorithm1(const graph::Graph& g,
                                    const Algorithm1Options& options = {},
                                    obs::Recorder* recorder = nullptr);

}  // namespace wcds::core
