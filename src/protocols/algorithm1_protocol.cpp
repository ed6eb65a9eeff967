#include "protocols/algorithm1_protocol.h"

#include <algorithm>
#include <memory>

#include "check/audit.h"
#include "check/check.h"
#include "protocols/component_runner.h"
#include "sim/shard_plan.h"

namespace wcds::protocols {
namespace {

bool contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

const char* algorithm1_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgCandidate: return "CANDIDATE";
    case kMsgResp: return "RESP";
    case kMsgCompleteA: return "COMPLETE-A";
    case kMsgLevel: return "LEVEL";
    case kMsgCompleteB: return "COMPLETE-B";
    case kMsgBlack: return "BLACK";
    case kMsgGrayI: return "GRAY";
  }
  return "?";
}

void Algorithm1Node::on_start(sim::Context& ctx) {
  started_ = true;
  best_cid_ = ctx.self();
  parent_ = kInvalidNode;
  if (ctx.neighbors().empty()) {
    // Single-node network: trivially the leader; marking is immediate.
    become_leader(ctx);
    return;
  }
  ctx.broadcast(kMsgCandidate, {best_cid_});
}

void Algorithm1Node::adopt(sim::Context& ctx, std::uint32_t cid,
                           NodeId new_parent) {
  best_cid_ = cid;
  parent_ = new_parent;
  resp_received_ = 0;
  children_.clear();
  children_complete_ = 0;
  sent_complete_a_ = false;
  ctx.broadcast(kMsgCandidate, {cid});
}

void Algorithm1Node::maybe_complete_wave(sim::Context& ctx) {
  if (sent_complete_a_) return;
  if (resp_received_ != ctx.neighbors().size()) return;
  if (children_complete_ != children_.size()) return;
  sent_complete_a_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteA, {best_cid_});
  } else if (best_cid_ == ctx.self()) {
    become_leader(ctx);
  }
}

void Algorithm1Node::become_leader(sim::Context& ctx) {
  leader_ = true;
  // Phase B: the root is at level 0 and announces it.
  announce_level(ctx, 0);
}

void Algorithm1Node::announce_level(sim::Context& ctx, std::uint32_t level) {
  level_ = level;
  if (ctx.neighbors().empty()) {
    start_marking(ctx);
    return;
  }
  ctx.broadcast(kMsgLevel, {level});
  maybe_complete_levels(ctx);
}

void Algorithm1Node::maybe_complete_levels(sim::Context& ctx) {
  if (level_ == kNoLevel || sent_complete_b_) return;
  // COMPLETE-B flows up once this node has leveled and every phase-A child
  // subtree reported.
  if (level_children_complete_ != children_.size()) return;
  sent_complete_b_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteB);
  } else {
    start_marking(ctx);
  }
}

void Algorithm1Node::start_marking(sim::Context& ctx) {
  // The root may already have marked itself black: its marking predicate is
  // vacuous (no lower-rank neighbor exists), so maybe_turn_black can fire as
  // soon as all neighbor levels are known, before COMPLETE-B returns.  The
  // fixpoint of the marking rules is the same greedy MIS either way.
  if (color_ == Color::kBlack) return;
  color_ = Color::kBlack;
  if (!ctx.neighbors().empty()) ctx.broadcast(kMsgBlack);
}

void Algorithm1Node::turn_gray(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  color_ = Color::kGray;
  ctx.broadcast(kMsgGrayI);
}

void Algorithm1Node::maybe_turn_black(sim::Context& ctx) {
  if (color_ != Color::kWhite || level_ == kNoLevel) return;
  const std::pair<std::uint32_t, NodeId> my_rank{level_, ctx.self()};
  for (NodeId v : ctx.neighbors()) {
    const auto it =
        std::find_if(neighbor_levels_.begin(), neighbor_levels_.end(),
                     [&](const auto& e) { return e.first == v; });
    if (it == neighbor_levels_.end()) return;  // level unknown yet: wait
    const std::pair<std::uint32_t, NodeId> their_rank{it->second, v};
    if (their_rank < my_rank && !contains(gray_senders_, v)) return;
  }
  color_ = Color::kBlack;
  ctx.broadcast(kMsgBlack);
}

void Algorithm1Node::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgCandidate: {
      const std::uint32_t cid = msg.payload[0];
      if (cid < best_cid_) {
        adopt(ctx, cid, msg.src);
        ctx.unicast(msg.src, kMsgResp, {cid, 1});
      } else if (cid == best_cid_) {
        ctx.unicast(msg.src, kMsgResp, {cid, 0});
      }
      // cid > best: suppress; that wave is extinct here.
      break;
    }
    case kMsgResp: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;  // stale wave
      ++resp_received_;
      if (msg.payload[1] == 1) children_.push_back(msg.src);
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgCompleteA: {
      if (msg.payload[0] != best_cid_) break;  // stale wave
      ++children_complete_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgLevel: {
      const std::uint32_t announced = msg.payload[0];
      // Insert-once keeps the record duplicate-safe (a node announces its
      // level a single time, so re-hearing it can only be a replay).
      const auto it =
          std::find_if(neighbor_levels_.begin(), neighbor_levels_.end(),
                       [&](const auto& e) { return e.first == msg.src; });
      if (it == neighbor_levels_.end()) {
        neighbor_levels_.emplace_back(msg.src, announced);
      }
      if (msg.src == parent_ && level_ == kNoLevel) {
        announce_level(ctx, announced + 1);
      }
      // A newly learned level can unblock the marking predicate.
      maybe_turn_black(ctx);
      break;
    }
    case kMsgCompleteB: {
      ++level_children_complete_;
      maybe_complete_levels(ctx);
      break;
    }
    case kMsgBlack: {
      turn_gray(ctx);
      break;
    }
    case kMsgGrayI: {
      // Duplicate-safe: a replayed GRAY must not double-count the sender.
      if (!contains(gray_senders_, msg.src)) gray_senders_.push_back(msg.src);
      maybe_turn_black(ctx);
      break;
    }
    default:
      WCDS_REQUIRE_STATE(false, "Algorithm1Node: unknown message type "
                                    << msg.type);
  }
}

DistributedAlgorithm1Run run_algorithm1(const graph::Graph& g,
                                        const sim::DelayModel& delays,
                                        obs::Recorder* recorder,
                                        const fault::Plan* faults,
                                        std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm1: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg1/total");
  const std::size_t n = g.node_count();
  const sim::ShardPlan plan = sim::ShardPlan::build(g);
  DistributedAlgorithm1Run run;
  run.leaders.assign(plan.shard_count(), kInvalidNode);
  run.levels.resize(n);
  // Shards write only their own nodes' slots.  Dominator flags go through a
  // byte array, not r.mask: vector<bool> packs bits into shared words, so
  // shards flagging adjacent node ids would race.
  std::vector<std::uint8_t> dominator(n, 0);
  {
    obs::PhaseTimer run_timer(rec, "alg1/protocol_run");
    run.stats = run_components(
        g, plan, [](NodeId) { return std::make_unique<Algorithm1Node>(); },
        delays, rec, faults, threads, "run_algorithm1",
        [&](const sim::ProtocolNode& inner, NodeId u, std::size_t shard) {
          const auto& node = static_cast<const Algorithm1Node&>(inner);
          if (node.is_leader()) run.leaders[shard] = u;
          run.levels[u] = node.level();
          if (node.is_dominator()) dominator[u] = 1;
        });
  }
  run.leader = run.leaders[0];

  // The ascending scan yields the sorted dominator list.
  obs::PhaseTimer extract_timer(rec, "alg1/extract");
  core::WcdsResult& r = run.wcds;
  r.mask.assign(n, false);
  r.color.assign(n, core::NodeColor::kGray);
  for (NodeId u = 0; u < n; ++u) {
    if (dominator[u] != 0) {
      r.mask[u] = true;
      r.color[u] = core::NodeColor::kBlack;
      r.dominators.push_back(u);
    }
  }
  r.mis_dominators = r.dominators;
  extract_timer.stop();

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg1/runs");
    metrics.observe("alg1/transmissions",
                    static_cast<double>(run.stats.transmissions));
    metrics.observe("alg1/completion_time",
                    static_cast<double>(run.stats.completion_time));
    metrics.observe("alg1/wcds_size", static_cast<double>(r.size()));
  }

  // Debug/test tripwire: the distributed run must land on the same
  // level-ranked-MIS invariants as the centralized construction (Theorem 4
  // included).
  if (check::audits_enabled()) {
    check::AuditOptions audit_options;
    audit_options.level_ranked = true;
    check::audit_invariants(g, r, audit_options);
  }
  return run;
}

}  // namespace wcds::protocols
