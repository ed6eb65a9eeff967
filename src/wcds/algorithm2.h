// Algorithm II (paper, Section 4.2) — centralized reference.
//
// U = S + C where S is the greedy lowest-ID-first MIS ("MIS-dominators") and
// C contains one intermediate node per pair of MIS-dominators exactly three
// hops apart ("additional-dominators").  By Lemma 9 the result is a WCDS;
// its weakly induced subgraph is a sparse spanner with topological dilation
// delta'(u,v) <= 3*delta(u,v) + 2 and geometric dilation l' <= 6*l + 5
// (Theorem 11).
//
// The per-node 1Hop/2Hop/3HopDomLists mirror the state of the distributed
// protocol and feed the clusterhead routing layer (src/routing).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "mis/mis.h"
#include "obs/recorder.h"
#include "wcds/wcds_result.h"

namespace wcds::core {

// The paper's per-node dominator knowledge after the information-exchange
// rounds.  one_hop/two_hop are kept for every node; three_hop only carries
// entries at MIS-dominators (empty elsewhere).
struct DominatorLists {
  std::vector<std::vector<NodeId>> one_hop;
  std::vector<std::vector<TwoHopEntry>> two_hop;
  std::vector<std::vector<ThreeHopEntry>> three_hop;
};

// Populate one_hop (adjacent MIS-dominators) and two_hop (MIS-dominators at
// exactly two hops, one entry per dominator with the smallest intermediate)
// for every node, given the MIS S.  `threads` sizes the pool that runs the
// one-hop pass and then the two-hop pass per node (0 = the WCDS_THREADS env
// / hardware default, 1 = inline serial); every node writes only its own
// row, so the lists are identical at any thread count.
[[nodiscard]] DominatorLists compute_dominator_lists(const graph::Graph& g,
                                                     const mis::MisResult& s,
                                                     std::size_t threads = 1);

struct Algorithm2Options {
  // How to pick the additional-dominator among the candidate intermediates
  // of a 3-hop MIS pair (ablation A2):
  enum class Selection {
    kLexSmallestPair,     // smallest (v, x); the deterministic default
    kReuseIntermediates,  // prefer a v already chosen for another pair
  };
  Selection selection = Selection::kLexSmallestPair;
};

struct Algorithm2Output {
  WcdsResult result;
  mis::MisResult mis;    // the MIS-dominator set S
  DominatorLists lists;  // including the populated 3HopDomLists
};

// Non-owning view over an Algorithm II construction: the shape every
// consumer on the serving path (ClusterheadRouter, route_flows, the service
// engine) takes, so routing over an n >= 10^6 backbone never copies the
// result/mis/lists triple.  The referenced storage must outlive the view —
// typically it lives in a core::BuildReport or an Algorithm2Output.
//
// Implicitly constructible from an Algorithm2Output lvalue so existing
// call sites keep compiling; construction from a temporary is deleted
// (the view would dangle before the callee returned).
class Algorithm2View {
 public:
  Algorithm2View(const WcdsResult& result, const mis::MisResult& mis,
                 const DominatorLists& lists)
      : result_(&result), mis_(&mis), lists_(&lists) {}

  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  Algorithm2View(const Algorithm2Output& output)
      : Algorithm2View(output.result, output.mis, output.lists) {}
  Algorithm2View(Algorithm2Output&&) = delete;

  [[nodiscard]] const WcdsResult& result() const { return *result_; }
  [[nodiscard]] const mis::MisResult& mis() const { return *mis_; }
  [[nodiscard]] const DominatorLists& lists() const { return *lists_; }

 private:
  const WcdsResult* result_;
  const mis::MisResult* mis_;
  const DominatorLists* lists_;
};

// Precondition: g is connected.  Throws std::invalid_argument otherwise.
// Metrics and phase timings go to `recorder` (explicit, else the ambient
// obs::global_recorder(), else none).
[[nodiscard]] Algorithm2Output algorithm2(const graph::Graph& g,
                                          const Algorithm2Options& options = {},
                                          obs::Recorder* recorder = nullptr);

}  // namespace wcds::core
