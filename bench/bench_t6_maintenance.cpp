// Experiment T6 (Section 4.2 maintenance): localized WCDS repair under
// mobility — invariant preservation, repair locality, and role churn,
// versus the cost of rebuilding from scratch.
#include "bench_common.h"

#include <iostream>
#include <string>

#include "bench_support/table.h"
#include "geom/rng.h"
#include "maintenance/dynamic_wcds.h"
#include "mis/mis.h"
#include "mobility/models.h"
#include "protocols/mis_maintenance_protocol.h"
#include "udg/udg.h"

namespace {

using namespace wcds;
using bench::set_gauge;

void print_tables() {
  bench::banner(std::cout,
                "T6: localized maintenance under mobility (60 events per row)");
  bench::Table table({"n", "move radius", "events", "violations",
                      "mean region", "region/n", "demotions", "promotions",
                      "bridge churn"});
  for (const std::uint32_t n : {200u, 500u, 1000u}) {
    for (const double radius : {0.25, 1.0}) {
      const double side = geom::side_for_expected_degree(n, 12.0);
      maintenance::DynamicWcds net(geom::uniform_square(n, side, 7));
      geom::Xoshiro256ss rng(n * 31 + 5);
      std::size_t violations = 0;
      std::size_t region_total = 0;
      std::size_t demoted = 0;
      std::size_t promoted = 0;
      std::size_t bridges = 0;
      const int kEvents = 60;
      for (int e = 0; e < kEvents; ++e) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        maintenance::RepairReport report;
        const auto kind = rng.next_below(10);
        if (kind < 8) {
          geom::Point p = net.position(u);
          p.x += rng.next_double(-radius, radius);
          p.y += rng.next_double(-radius, radius);
          report = net.move_node(u, p);
        } else if (kind == 8) {
          report = net.deactivate(u);
        } else {
          report = net.activate(u);
        }
        region_total += report.region_size;
        demoted += report.demoted;
        promoted += report.promoted;
        bridges += report.bridges_changed;
        if (!net.audit().ok()) ++violations;
      }
      const double mean_region =
          static_cast<double>(region_total) / kEvents;
      table.add_row({std::to_string(n), bench::fmt(radius, 2),
                     std::to_string(kEvents), bench::fmt_count(violations),
                     bench::fmt(mean_region, 1),
                     bench::fmt(mean_region / n, 3),
                     bench::fmt_count(demoted), bench::fmt_count(promoted),
                     bench::fmt_count(bridges)});
      set_gauge("t6/violations/n" + std::to_string(n) + "_r" +
                    bench::fmt(radius, 2),
                static_cast<double>(violations));
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: zero invariant violations; the repair "
               "region is a 3-hop\nball whose absolute size is independent "
               "of n (region/n shrinks as n grows);\nsmall moves cause "
               "near-zero role churn.\n";

  bench::banner(std::cout,
                "T6b: maintenance under mobility models (n = 250, 10 steps "
                "of dt = 0.5)");
  bench::Table models({"model", "violations", "role changes", "mean region",
                       "final |U|"});
  const std::uint32_t n = 250;
  const double side = geom::side_for_expected_degree(n, 12.0);
  const mobility::ArenaBox arena{side, side};
  for (const int kind : {0, 1, 2}) {
    auto start = geom::uniform_square(n, side, 11);
    std::unique_ptr<mobility::MobilityModel> model;
    switch (kind) {
      case 0:
        model = std::make_unique<mobility::RandomWaypoint>(
            start, arena, mobility::WaypointParams{}, 21);
        break;
      case 1:
        model = std::make_unique<mobility::RandomWalk>(
            start, arena, mobility::WalkParams{}, 22);
        break;
      default: {
        mobility::GroupParams gp;
        gp.groups = 5;
        gp.member_radius = 2.0;
        model = std::make_unique<mobility::ReferencePointGroup>(start, arena,
                                                                gp, 23);
        break;
      }
    }
    maintenance::DynamicWcds net(start);
    std::size_t violations = 0;
    std::size_t roles = 0;
    std::size_t region_total = 0;
    std::size_t events = 0;
    for (int step = 0; step < 10; ++step) {
      model->step(0.5);
      const auto& pts = model->positions();
      for (NodeId u = 0; u < n; ++u) {
        if (geom::squared_distance(pts[u], net.position(u)) < 1e-6) continue;
        const auto report = net.move_node(u, pts[u]);
        roles += report.demoted + report.promoted;
        region_total += report.region_size;
        ++events;
      }
      if (!net.audit().ok()) ++violations;
    }
    const char* name = kind == 0   ? "random waypoint"
                       : kind == 1 ? "random walk"
                                   : "group (RPGM)";
    const char* key = kind == 0 ? "waypoint" : kind == 1 ? "walk" : "group";
    set_gauge(std::string("t6b/violations/") + key,
              static_cast<double>(violations));
    models.add_row({name, bench::fmt_count(violations),
                    bench::fmt_count(roles),
                    bench::fmt(events > 0 ? static_cast<double>(region_total) /
                                                static_cast<double>(events)
                                          : 0.0,
                               1),
                    bench::fmt_count(net.dominators().size())});
  }
  models.print(std::cout);
  std::cout << "\nExpected shape: zero violations under all three mobility "
               "models, with the\nrepair region staying a small fraction of "
               "the network even under continuous\nmotion; coherent group "
               "motion changes the fewest roles.\n";

  bench::banner(std::cout,
                "T6c: distributed MIS maintenance protocol (messages per "
                "mobility event)");
  bench::Table proto({"n", "bootstrap msgs", "msgs/event", "msgs/event/n",
                      "MIS valid after all"});
  for (const std::uint32_t pn : {100u, 250u, 500u}) {
    const double pside = geom::side_for_expected_degree(pn, 10.0);
    auto points = geom::uniform_square(pn, pside, 13);
    protocols::MisMaintenanceSession session(udg::build_udg(points));
    const bool boot = session.stabilize();
    const auto bootstrap_msgs = session.stats().transmissions;
    geom::Xoshiro256ss rng(pn + 7);
    bool all_valid = boot;
    const int kEvents = 30;
    for (int e = 0; e < kEvents; ++e) {
      const auto u = static_cast<NodeId>(rng.next_below(pn));
      points[u].x += rng.next_double(-0.8, 0.8);
      points[u].y += rng.next_double(-0.8, 0.8);
      const auto g = udg::build_udg(points);
      all_valid = session.update(g) && all_valid;
      all_valid =
          all_valid && mis::is_maximal_independent_set(g, session.mis_mask());
    }
    const double per_event =
        static_cast<double>(session.stats().transmissions - bootstrap_msgs) /
        kEvents;
    proto.add_row({std::to_string(pn), bench::fmt_count(bootstrap_msgs),
                   bench::fmt(per_event, 1),
                   bench::fmt(per_event / pn, 3),
                   all_valid ? "yes" : "NO"});
    set_gauge("t6c/valid/n" + std::to_string(pn), all_valid ? 1.0 : 0.0);
  }
  proto.print(std::cout);
  std::cout << "\nExpected shape: bootstrap costs ~2 messages per node; each "
               "mobility event\nthen costs a handful of messages independent "
               "of n (msgs/event/n shrinks) —\nthe protocol's locality.\n";

  // The maintenance/* totals of every DynamicWcds event above, as gauges the
  // gate pins to the baseline: any change to repair or bridge choices moves
  // one of them.
  if (const obs::Recorder* rec = obs::global_recorder()) {
    const auto counters = rec->snapshot().counters;
    for (const std::string name :
         {"events", "demoted", "promoted", "bridges_changed"}) {
      const auto it = counters.find("maintenance/" + name);
      set_gauge("t6/maintenance/" + name,
                it == counters.end() ? 0.0
                                     : static_cast<double>(it->second));
    }
  }
}

void BM_MoveEvent(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double side = geom::side_for_expected_degree(n, 12.0);
  maintenance::DynamicWcds net(geom::uniform_square(n, side, 3));
  geom::Xoshiro256ss rng(11);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    geom::Point p = net.position(u);
    p.x += rng.next_double(-0.5, 0.5);
    p.y += rng.next_double(-0.5, 0.5);
    benchmark::DoNotOptimize(net.move_node(u, p));
  }
}
BENCHMARK(BM_MoveEvent)->Arg(200)->Arg(500);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
