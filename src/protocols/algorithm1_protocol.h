// Distributed Algorithm I (paper, Section 4.1).
//
// Three phases, chained by the elected leader:
//
//  A. Leader Election + spanning tree.  Extinction-with-echo in the style of
//     Cidon & Mokryn [9]: every node floods a CANDIDATE wave carrying its ID;
//     nodes adopt the smallest candidate seen (parent := first sender of the
//     winning wave, which under unit delays yields a BFS tree), answer each
//     CANDIDATE broadcast with a RESP (joined or not), suppress waves larger
//     than their current best, and convergecast COMPLETE up the adoption
//     tree.  The node whose own wave completes is the leader.  Expected
//     O(n log n) messages for random IDs; O(n) time.
//
//  B. Level Calculation.  The leader announces LEVEL 0; every node sets
//     level := parent's announced level + 1 upon its parent's announcement,
//     announces its own level (recording every neighbor's), and convergecasts
//     COMPLETE-B to the root.
//
//  C. Color Marking.  rank(u) = (level, ID), lexicographic.  The root marks
//     itself black and broadcasts BLACK; a white node hearing BLACK turns
//     gray and broadcasts GRAY; a white node that has heard GRAY from every
//     lower-rank neighbor turns black and broadcasts BLACK.  The black nodes
//     are the level-ranked MIS = the WCDS (Theorem 5).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/message.h"
#include "sim/runtime.h"
#include "wcds/wcds_result.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::protocols {

// Enumerator values are stable wire/stats ids, not packing constants.
enum Algorithm1MessageType : sim::MessageType {
  kMsgCandidate = 20,   // broadcast [cid]
  kMsgResp = 21,        // unicast   [cid, joined]
  kMsgCompleteA = 22,   // unicast   [cid]
  kMsgLevel = 23,       // broadcast [level]   wcds-lint: allow(paper-constant)
  kMsgCompleteB = 24,   // unicast   []        wcds-lint: allow(paper-constant)
  kMsgBlack = 25,       // broadcast []
  kMsgGrayI = 26,       // broadcast []
};

[[nodiscard]] const char* algorithm1_message_name(sim::MessageType type);

class Algorithm1Node final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;

  // Final-state accessors (valid after quiescence).
  [[nodiscard]] bool is_dominator() const { return color_ == Color::kBlack; }
  [[nodiscard]] bool is_leader() const { return leader_; }
  [[nodiscard]] std::uint32_t level() const { return level_; }
  [[nodiscard]] NodeId parent() const { return parent_; }

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  // Phase A.
  void adopt(sim::Context& ctx, std::uint32_t cid, NodeId new_parent);
  void maybe_complete_wave(sim::Context& ctx);
  void become_leader(sim::Context& ctx);

  // Phase B.
  void announce_level(sim::Context& ctx, std::uint32_t level);
  void maybe_complete_levels(sim::Context& ctx);

  // Phase C.
  void start_marking(sim::Context& ctx);
  void turn_gray(sim::Context& ctx);
  void maybe_turn_black(sim::Context& ctx);

  // Phase A state.
  std::uint32_t best_cid_ = 0;
  NodeId parent_ = kInvalidNode;
  std::size_t resp_received_ = 0;
  std::vector<NodeId> children_;
  std::size_t children_complete_ = 0;
  bool sent_complete_a_ = false;
  bool started_ = false;
  bool leader_ = false;

  // Phase B state.
  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;
  std::uint32_t level_ = kNoLevel;
  std::vector<std::pair<NodeId, std::uint32_t>> neighbor_levels_;
  std::size_t level_children_complete_ = 0;
  bool sent_complete_b_ = false;

  // Phase C state.
  Color color_ = Color::kWhite;
  std::vector<NodeId> gray_senders_;
};

struct DistributedAlgorithm1Run {
  core::WcdsResult wcds;
  sim::RunStats stats;
  // Component 0's elected leader (the historical single-component field);
  // `leaders` holds one per connected component, in component-index order.
  NodeId leader = kInvalidNode;
  std::vector<NodeId> leaders;
  std::vector<std::uint32_t> levels;
};

// Run the three phases to quiescence on g.  Under an asynchronous delay
// model the flood tree is an *arbitrary* spanning tree rather than a BFS
// tree — exactly the generality the paper claims (Section 2.2: "first we
// build an arbitrary spanning tree"); Theorems 4/5 still hold because
// levels remain tree distances.
//
// g need not be connected: the protocol is purely message-driven, so a run
// over a disconnected deployment is the composition of independent
// per-component runs — each component elects its own leader and builds its
// own level-ranked MIS.  The component sub-runs execute on a pool of
// `threads` (0 = WCDS_THREADS env / hardware default, 1 = serially on the
// caller); results are byte-identical at any count (sim/sharded.h).  A
// connected graph is a one-shard plan through the same runner
// (protocols/component_runner.h): it runs inline, with the run's own seeds.
//
// `recorder` (explicit, else the ambient obs::global_recorder(), else none)
// receives wall-clock phase timings, the sim's message metrics and the
// resulting |WCDS|.  Application code should prefer the wcds::core::build()
// facade (src/facade/build.h); calling this directly is deprecated outside
// the protocol layer itself.
// `faults` (null = the perfect radio, zero overhead) injects the plan's
// deterministic losses/duplicates/jitter/crashes; the protocol then runs
// wrapped in the fault::HardenedNode reliable transport and must still
// converge to an audited WCDS.
[[nodiscard]] DistributedAlgorithm1Run run_algorithm1(
    const graph::Graph& g, const sim::DelayModel& delays = sim::DelayModel::unit(),
    obs::Recorder* recorder = nullptr, const fault::Plan* faults = nullptr,
    std::size_t threads = 0);

}  // namespace wcds::protocols
