#include "protocols/algorithm2_protocol.h"

#include <algorithm>
#include <memory>

#include "check/audit.h"
#include "check/check.h"
#include "protocols/component_runner.h"
#include "sim/shard_plan.h"

namespace wcds::protocols {
namespace {

// Sorted-unique insertion; returns true if newly inserted.
template <typename T>
bool insert_unique(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return false;
  v.insert(it, value);
  return true;
}

template <typename T>
bool contains_sorted(const std::vector<T>& v, const T& value) {
  return std::binary_search(v.begin(), v.end(), value);
}

}  // namespace

const char* algorithm2_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgMisDominator: return "MIS-DOMINATOR";
    case kMsgGray: return "GRAY";
    case kMsgOneHopDoms: return "1-HOP-DOMINATORS";
    case kMsgTwoHopDoms: return "2-HOP-DOMINATORS";
    case kMsgSelection: return "SELECTION";
    case kMsgAdditionalDominator: return "ADDITIONAL-DOMINATOR";
    case kMsgAdditionalForward: return "ADDITIONAL-FORWARD";
  }
  return "?";
}

void Algorithm2Node::on_start(sim::Context& ctx) {
  maybe_become_dominator(ctx);
}

void Algorithm2Node::maybe_become_dominator(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  // Rule 1 + rule 3 combined: a white node turns MIS-dominator once every
  // lower-ID neighbor is known gray (at start this is vacuous for a local
  // ID minimum).
  for (NodeId v : ctx.neighbors()) {
    if (v < ctx.self() && !contains_sorted(gray_heard_, v)) return;
  }
  color_ = Color::kBlack;
  mis_dominator_ = true;
  ctx.broadcast(kMsgMisDominator);
}

void Algorithm2Node::note_color_heard(sim::Context& ctx, NodeId from) {
  insert_unique(color_heard_, from);
  // Rule 4: a gray node that has heard GRAY or MIS-DOMINATOR from all its
  // neighbors announces its 1HopDomList.
  maybe_send_one_hop(ctx);
}

void Algorithm2Node::maybe_send_one_hop(sim::Context& ctx) {
  if (color_ != Color::kGray || sent_one_hop_) return;
  if (color_heard_.size() != ctx.neighbors().size()) return;
  sent_one_hop_ = true;
  std::vector<std::uint32_t> payload(one_hop_doms_.begin(),
                                     one_hop_doms_.end());
  ctx.broadcast(kMsgOneHopDoms, std::move(payload));
  // All gray neighbors may already have reported (possible when this node
  // grayed late); re-check the 2-hop trigger.
  maybe_send_two_hop(ctx);
}

void Algorithm2Node::maybe_send_two_hop(sim::Context& ctx) {
  if (color_ != Color::kGray || !sent_one_hop_ || sent_two_hop_) return;
  if (color_heard_.size() != ctx.neighbors().size()) return;
  // Rule 7: heard 1-HOP-DOMINATORS from each gray neighbor.
  for (NodeId v : gray_neighbors_) {
    if (!contains_sorted(one_hop_heard_, v)) return;
  }
  sent_two_hop_ = true;
  std::vector<std::uint32_t> payload;
  payload.reserve(two_hop_doms_.size() * 2);
  for (const core::TwoHopEntry& e : two_hop_doms_) {
    payload.push_back(e.dom);
    payload.push_back(e.via);
  }
  ctx.broadcast(kMsgTwoHopDoms, std::move(payload));
}

bool Algorithm2Node::knows_two_hop(NodeId dom) const {
  return std::any_of(two_hop_doms_.begin(), two_hop_doms_.end(),
                     [&](const core::TwoHopEntry& e) { return e.dom == dom; });
}

bool Algorithm2Node::knows_three_hop(NodeId dom) const {
  return std::any_of(
      three_hop_doms_.begin(), three_hop_doms_.end(),
      [&](const core::ThreeHopEntry& e) { return e.dom == dom; });
}

void Algorithm2Node::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgMisDominator: {
      // Rule 2: first dominator heard grays a white node; every dominator
      // heard lands in the 1HopDomList.
      insert_unique(one_hop_doms_, msg.src);
      if (color_ == Color::kWhite) {
        color_ = Color::kGray;
        ctx.broadcast(kMsgGray);
      }
      note_color_heard(ctx, msg.src);
      break;
    }
    case kMsgGray: {
      insert_unique(gray_heard_, msg.src);
      insert_unique(gray_neighbors_, msg.src);
      // Rule 3: a white node black-promotes once all lower-ID neighbors
      // reported gray.
      maybe_become_dominator(ctx);
      note_color_heard(ctx, msg.src);
      break;
    }
    case kMsgOneHopDoms: {
      insert_unique(one_hop_heard_, msg.src);
      for (std::uint32_t dom : msg.payload) {
        if (dom == ctx.self()) continue;
        if (contains_sorted(one_hop_doms_, NodeId{dom})) continue;
        // Rules 5/6: record the 2-hop dominator with the reporting neighbor
        // as the intermediate; one entry per dominator (first heard wins).
        if (!knows_two_hop(dom)) {
          two_hop_doms_.push_back({dom, msg.src});
        }
        // Rule 6 tail: a dominator found at 2 hops cancels any tentative
        // 3-hop entry (only MIS-dominators hold those).
        if (mis_dominator_) {
          std::erase_if(three_hop_doms_, [&](const core::ThreeHopEntry& e) {
            return e.dom == dom;
          });
        }
      }
      maybe_send_two_hop(ctx);
      break;
    }
    case kMsgTwoHopDoms: {
      // Rule 8: only MIS-dominators react.
      if (!mis_dominator_) break;
      for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
        const NodeId w = msg.payload[i];
        const NodeId x = msg.payload[i + 1];
        if (w == ctx.self() || ctx.self() >= w) continue;
        if (contains_sorted(one_hop_doms_, w)) continue;
        if (knows_two_hop(w) || knows_three_hop(w)) continue;
        three_hop_doms_.push_back({w, msg.src, x});
        ctx.unicast(msg.src, kMsgSelection, {ctx.self(), msg.src, x, w});
      }
      break;
    }
    case kMsgSelection: {
      // Rule 9: v turns additional-dominator and confirms — once per
      // selection tuple; a replayed SELECTION is acknowledged by the
      // transport but must not re-broadcast the confirmation.
      const std::array<std::uint32_t, 4> key{msg.payload[0], msg.payload[1],
                                             msg.payload[2], msg.payload[3]};
      if (!insert_unique(confirmed_selections_, key)) break;
      const NodeId u = msg.payload[0];
      const NodeId x = msg.payload[2];
      const NodeId w = msg.payload[3];
      additional_ = true;
      ctx.broadcast(kMsgAdditionalDominator, {ctx.self(), u, x, w});
      break;
    }
    case kMsgAdditionalDominator: {
      // The named intermediate x relays the confirmation to w (one hop
      // further than v's radio reaches).
      const NodeId v = msg.payload[0];
      const NodeId u = msg.payload[1];
      const NodeId x = msg.payload[2];
      const NodeId w = msg.payload[3];
      if (x == ctx.self()) {
        ctx.unicast(w, kMsgAdditionalForward, {v, u, x, w});
      }
      break;
    }
    case kMsgAdditionalForward: {
      // Rule 10: w records the reverse 3-hop entry (u via x then v).
      const NodeId v = msg.payload[0];
      const NodeId u = msg.payload[1];
      const NodeId x = msg.payload[2];
      if (!knows_three_hop(u)) {
        three_hop_doms_.push_back({u, x, v});
      }
      break;
    }
    default:
      WCDS_REQUIRE_STATE(false, "Algorithm2Node: unknown message type "
                                    << msg.type);
  }
}

DistributedWcdsRun run_algorithm2(const graph::Graph& g,
                                  const sim::DelayModel& delays,
                                  obs::Recorder* recorder,
                                  const fault::Plan* faults,
                                  std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm2: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg2/total");
  const std::size_t n = g.node_count();
  const sim::ShardPlan plan = sim::ShardPlan::build(g);
  DistributedWcdsRun run;
  // Shards record each node's final role in disjoint slots.
  enum : std::uint8_t { kRoleNone = 0, kRoleMis = 1, kRoleAdditional = 2 };
  std::vector<std::uint8_t> role(n, kRoleNone);
  {
    obs::PhaseTimer run_timer(rec, "alg2/protocol_run");
    run.stats = run_components(
        g, plan, [](NodeId) { return std::make_unique<Algorithm2Node>(); },
        delays, rec, faults, threads, "run_algorithm2",
        [&](const sim::ProtocolNode& inner, NodeId u, std::size_t) {
          const auto& node = static_cast<const Algorithm2Node&>(inner);
          if (node.is_mis_dominator()) {
            role[u] = kRoleMis;
          } else if (node.is_additional_dominator()) {
            role[u] = kRoleAdditional;
          }
        });
  }

  // The ascending scan yields sorted dominator lists.
  obs::PhaseTimer extract_timer(rec, "alg2/extract");
  core::WcdsResult& r = run.wcds;
  r.mask.assign(n, false);
  r.color.assign(n, core::NodeColor::kGray);
  for (NodeId u = 0; u < n; ++u) {
    if (role[u] == kRoleMis) {
      r.mis_dominators.push_back(u);
      r.mask[u] = true;
    } else if (role[u] == kRoleAdditional) {
      r.additional_dominators.push_back(u);
      r.mask[u] = true;
    }
    if (r.mask[u]) {
      r.dominators.push_back(u);
      r.color[u] = core::NodeColor::kBlack;
    }
  }
  extract_timer.stop();

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg2/runs");
    metrics.observe("alg2/transmissions",
                    static_cast<double>(run.stats.transmissions));
    metrics.observe("alg2/completion_time",
                    static_cast<double>(run.stats.completion_time));
    metrics.observe("alg2/wcds_size", static_cast<double>(r.size()));
    metrics.observe("alg2/mis_size",
                    static_cast<double>(r.mis_dominators.size()));
    metrics.observe("alg2/additional_size",
                    static_cast<double>(r.additional_dominators.size()));
  }

  // Debug/test tripwire: the message-passing construction must satisfy the
  // same Section 1-3 invariants as the centralized algorithm2.
  if (check::audits_enabled()) check::audit_invariants(g, r);
  return run;
}

}  // namespace wcds::protocols
