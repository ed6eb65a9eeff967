// churn-waypoint: a seeded stream of DynamicWcds maintenance events under
// random-waypoint mobility.
//
// n = 4 096 uniform nodes at expected degree 12.  Each event moves a
// uniformly chosen node to its current RandomWaypoint position; about one
// event in ten is instead a deactivate/activate pair.  Events are grouped
// into epochs of kEpochEvents; each epoch starts with one mobility step and
// ends by handing the UDG of the current positions to
// MisMaintenanceSession::update on a perfect radio.  The only workload that
// writes to the backbone instead of reading it.
#include <memory>

#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "maintenance/dynamic_wcds.h"
#include "mobility/models.h"
#include "protocols/mis_maintenance_protocol.h"
#include "spans.h"
#include "udg/udg.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr double kDegree = 12.0;
constexpr std::uint32_t kEpochEvents = 64;
constexpr double kEpochDt = 1.0;  // mobility time per epoch
constexpr std::uint64_t kOnOffOneIn = 10;
constexpr int kSetups = 15;
// backbone_frac averages the first epochs only, so it does not depend on
// how many epochs the timed phase fits in.
constexpr std::uint64_t kFracEpochs = 16;

struct Churn {
  std::vector<wcds::geom::Point> points;
  wcds::graph::Graph g;
  wcds::graph::Components cc;
  std::unique_ptr<wcds::maintenance::DynamicWcds> wcds;
  std::unique_ptr<wcds::protocols::MisMaintenanceSession> session;
  std::unique_ptr<wcds::mobility::RandomWaypoint> model;
  bool stabilized = false;
};

Churn make_churn(std::uint64_t seed, Lane* lane) {
  Churn c;
  wcds::geom::WorkloadParams params;
  params.kind = wcds::geom::WorkloadKind::kUniform;
  params.count = kNodes;
  params.side = wcds::geom::side_for_expected_degree(kNodes, kDegree);
  params.seed = mix_seed(seed, 1);
  {
    Span span(lane, "geom.generate");
    c.points = wcds::geom::generate(params);
  }
  {
    Span span(lane, "udg.build");
    c.g = wcds::udg::build_udg(c.points);
  }
  {
    Span span(lane, "graph.components");
    c.cc = wcds::graph::connected_components(c.g);
  }
  {
    Span span(lane, "maintenance.ctor");
    c.wcds = std::make_unique<wcds::maintenance::DynamicWcds>(c.points);
  }
  {
    Span span(lane, "protocols.mis_stabilize");
    c.session = std::make_unique<wcds::protocols::MisMaintenanceSession>(c.g);
    c.stabilized = c.session->stabilize();
  }
  {
    Span span(lane, "mobility.ctor");
    c.model = std::make_unique<wcds::mobility::RandomWaypoint>(
        c.points, wcds::mobility::ArenaBox{params.side, params.side},
        wcds::mobility::WaypointParams{}, mix_seed(seed, 2));
  }
  return c;
}

struct ChurnTally {
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t region = 0;
  std::uint64_t role_changes = 0;
  std::uint64_t bridges_changed = 0;
  double timed_s = 0.0;
  double frac_sum = 0.0;  // |S u C| / n at the end of the first epochs
  std::uint64_t frac_epochs = 0;
  LatencyLog latency;  // every event kind
  std::vector<double> update_ms;

  void add(const wcds::maintenance::RepairReport& r) {
    region += r.region_size;
    role_changes += r.demoted + r.promoted;
    bridges_changed += r.bridges_changed;
  }
};

double backbone_frac(const Churn& c) {
  return static_cast<double>(c.wcds->dominators().size()) /
         static_cast<double>(kNodes);
}

// Runs whole epochs until `seconds` of churn have been timed.  The per-epoch
// audit and convergence check run off the clock.
void churn_for(Churn& c, wcds::geom::Xoshiro256ss& rng, double seconds,
               Lane* lane, ChurnTally& tally, Report& rep,
               std::uint64_t& event_index, std::uint64_t& epoch_index) {
  const double until = tally.timed_s + seconds;
  std::vector<wcds::geom::Point> positions(kNodes);
  while (tally.timed_s < until) {
    const std::uint64_t epoch = epoch_index++;
    double epoch_ms = 0.0;
    {
      Span span(lane, "mobility.step", epoch);
      c.model->step(kEpochDt);
      epoch_ms += span.stop();
    }
    const auto& targets = c.model->positions();
    for (std::uint32_t k = 0; k < kEpochEvents; ++k) {
      const std::uint64_t op = event_index++;
      const auto u = static_cast<wcds::NodeId>(rng.next_below(kNodes));
      double ms = 0.0;
      if (rng.next_below(kOnOffOneIn) == 0) {
        Span span(lane, "maintenance.onoff", op);
        const auto off = c.wcds->deactivate(u);
        const auto on = c.wcds->activate(u);
        ms = span.stop();
        tally.add(off);
        tally.add(on);
      } else {
        Span span(lane, "maintenance.move", op);
        const auto moved = c.wcds->move_node(u, targets[u]);
        ms = span.stop();
        tally.add(moved);
      }
      tally.latency.add_us(ms * 1000.0);
      epoch_ms += ms;
    }
    for (wcds::NodeId u = 0; u < kNodes; ++u) {
      positions[u] = c.wcds->position(u);
    }
    wcds::graph::Graph current;
    {
      Span span(lane, "udg.build", epoch);
      current = wcds::udg::build_udg(positions);
      epoch_ms += span.stop();
    }
    bool quiescent = false;
    {
      Span span(lane, "protocols.mis_update", epoch);
      quiescent = c.session->update(current);
      const double ms = span.stop();
      tally.update_ms.push_back(ms);
      epoch_ms += ms;
    }
    tally.timed_s += epoch_ms / 1000.0;
    tally.events += kEpochEvents;
    ++tally.epochs;
    rep.attempted += kEpochEvents;
    bool ok = quiescent;
    {
      Span span(lane, "check.verify", epoch);
      ok = c.wcds->audit().ok() && ok;
    }
    {
      Span span(lane, "check.audit", epoch);
      ok = c.session->converged() && ok;
    }
    rep.fail(ok ? 0 : kEpochEvents,
             "event in an epoch failing audit() or converged()");
    if (tally.frac_epochs < kFracEpochs) {
      tally.frac_sum += backbone_frac(c);
      ++tally.frac_epochs;
    }
  }
}

}  // namespace

Report run_churn_waypoint(const Args& args, Tracer* tracer) {
  Report rep;
  Lane* main = tracer != nullptr ? tracer->main() : nullptr;

  const std::uint64_t event_seed = mix_seed(args.seed, 3);
  std::vector<double> setup_s;
  Churn c;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    c = Churn();
    const auto start = k == 0 ? process_start() : Clock::now();
    {
      Span span(main, "bench.setup");
      c = make_churn(args.seed, main);
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    InputHash hash;
    hash.add(std::span<const wcds::geom::Point>(c.points));
    hash.add_value(event_seed);
    if (k == 0) rep.inputs_hash = hash.hex();
    rep.fail(hash.hex() != rep.inputs_hash ? 1 : 0, "set-up inputs differ");
    rep.fail(c.stabilized ? 0 : 1, "initial MIS session did not stabilize");
  }

  wcds::geom::Xoshiro256ss rng(event_seed);
  std::uint64_t event_index = 0;
  std::uint64_t epoch_index = 0;
  ChurnTally tally;
  churn_for(c, rng, args.trace ? args.seconds / 4.0 : args.seconds, nullptr,
            tally, rep, event_index, epoch_index);
  const double events_per_s =
      static_cast<double>(tally.events) / tally.timed_s;
  rep.line("churn_events_per_s", events_per_s, "1/s");
  rep.line("mis_update_ms", median(tally.update_ms), "ms",
           std::to_string(tally.update_ms.size()) + " epochs, median");

  if (!args.trace) {
    const double p50 = tally.latency.quantile_us(0.5);
    const double p99 = tally.latency.quantile_us(0.99);
    const std::string samples =
        std::to_string(tally.latency.count()) + " samples";
    rep.line("churn_p50_us", p50, "us", samples);
    rep.line("churn_p99_us", p99, "us", samples);
    const double frac =
        tally.frac_sum / static_cast<double>(tally.frac_epochs);
    rep.setup(setup_s);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("ops_per_s", events_per_s, "1/s");
    rep.metric("op_p50_us", p50, "us");
    rep.metric("op_p99_us", p99, "us");
    rep.metric("backbone_frac", frac, "ratio");
    return rep;
  }

  ChurnTally traced;
  {
    Span measure(main, "bench.measure");
    churn_for(c, rng, args.seconds, main, traced, rep, event_index,
              epoch_index);
  }
  const double traced_per_s =
      static_cast<double>(traced.events) / traced.timed_s;
  const Tracer& t = *tracer;
  const double n = static_cast<double>(kNodes);
  const double events = static_cast<double>(traced.events);
  // Setup's UDG is the first "udg.build" span; the rest are epoch rebuilds
  // at the current positions.
  std::vector<double> udg_ms = t.durations_ms("udg.build");
  const double setup_udg_ms = udg_ms.front();
  udg_ms.erase(udg_ms.begin());
  const double move_p50_us = median(t.durations_ms("maintenance.move")) * 1e3;
  std::size_t mis = 0;
  for (wcds::NodeId u = 0; u < kNodes; ++u) mis += c.wcds->is_mis_dominator(u);

  rep.metric("geom.generate_ms", t.total_ms("geom.generate"), "ms");
  rep.metric("udg.build_ms", setup_udg_ms, "ms");
  rep.metric("udg.edges_per_node", static_cast<double>(c.g.edge_count()) / n,
             "count");
  rep.metric("graph.components_ms", t.total_ms("graph.components"), "ms");
  rep.metric("graph.components", c.cc.count, "count");
  rep.metric("mis.size", static_cast<double>(mis), "count");
  rep.metric("wcds.additional",
             static_cast<double>(c.wcds->dominators().size() - mis), "count");
  rep.metric("maintenance.move_p50_us", move_p50_us, "us");
  rep.metric("maintenance.move_p99_us",
             quantile(t.durations_ms("maintenance.move"), 0.99) * 1e3, "us");
  rep.metric("maintenance.onoff_p50_us",
             median(t.durations_ms("maintenance.onoff")) * 1e3, "us");
  rep.metric("maintenance.region_mean",
             static_cast<double>(traced.region) / events, "count");
  rep.metric("maintenance.role_changes_per_event",
             static_cast<double>(traced.role_changes) / events, "count");
  rep.metric("maintenance.bridges_changed_per_event",
             static_cast<double>(traced.bridges_changed) / events, "count");
  rep.metric("maintenance.udg_rebuild_share",
             median(udg_ms) * 1e3 / move_p50_us, "ratio");
  rep.metric("protocols.mis_update_ms", median(traced.update_ms), "ms");
  rep.metric("mobility.step_ms", median(t.durations_ms("mobility.step")), "ms");
  rep.metric("check.verify_ms", t.total_ms("check.verify"), "ms");
  rep.metric("check.audit_ms", t.total_ms("check.audit"), "ms");
  rep.metric("obs.trace_overhead", events_per_s / traced_per_s - 1.0, "ratio");
  return rep;
}

}  // namespace perfbench
