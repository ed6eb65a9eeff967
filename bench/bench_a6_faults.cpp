// Experiment A6: protocol robustness under radio faults.
//
// A6a sweeps per-copy loss rates over both distributed construction
// protocols running on the hardened reliable transport
// (fault::HardenedNode): every configuration must still converge to an
// audit-clean WCDS, and the table quantifies what reliability costs — the
// retransmit/ack overhead relative to the fault-free run.
//
// A6b measures loss-rate vs recovery for the self-stabilizing MIS
// maintenance session: a node crashes (all links vanish) and later
// recovers, both under message loss, and the table reports the wall-clock
// and message cost of re-convergence (watchdog included).
//
// A6c times the event-driven maintenance layer's crash/recover repairs
// (maintenance::run_crash_schedule over maintenance::DynamicWcds) — the paper's
// 3-hop locality claim is what keeps these flat as n grows.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "facade/build.h"
#include "fault/plan.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "protocols/mis_maintenance_protocol.h"

namespace {

using namespace wcds;

constexpr std::uint32_t kNodes = 150;
constexpr double kDegree = 10.0;
constexpr std::uint64_t kSeeds = 5;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::string pct(double rate) {
  return std::to_string(static_cast<int>(rate * 100 + 0.5));
}

using bench::set_gauge;

void print_a6a() {
  bench::banner(std::cout,
                "A6a: construction under loss (drop rate x algorithm, "
                "dup=0.05, jitter<=2, " +
                    std::to_string(kSeeds) + " seeds, n=" +
                    std::to_string(kNodes) + ")");
  bench::Table table({"drop", "alg", "converged", "msgs (median)",
                      "retransmits", "time", "msg overhead"});
  for (const bool alg1 : {true, false}) {
    double fault_free_msgs = 0.0;
    for (const double drop : {0.0, 0.1, 0.2, 0.3}) {
      std::vector<double> msgs, retransmits, times;
      std::size_t converged = 0;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const auto inst = bench::connected_instance(kNodes, kDegree, seed);
        const fault::Plan plan = fault::Plan::chaos(drop, 0.05, 2, seed);
        const fault::Plan* faults = drop > 0.0 ? &plan : nullptr;
        obs::Recorder rec;
        core::BuildOptions opts;
        opts.algorithm = alg1 ? core::BuildAlgorithm::kAlgorithm1Protocol
                              : core::BuildAlgorithm::kAlgorithm2Protocol;
        opts.faults = faults;
        opts.recorder = &rec;
        const auto stats = core::build(inst.g, opts).stats;
        if (stats.quiescent) ++converged;
        msgs.push_back(static_cast<double>(stats.transmissions));
        times.push_back(static_cast<double>(stats.completion_time));
        const auto snapshot = rec.snapshot();
        const auto it = snapshot.counters.find("fault/retransmits");
        retransmits.push_back(
            it != snapshot.counters.end() ? static_cast<double>(it->second)
                                          : 0.0);
      }
      const double med_msgs = median(msgs);
      if (drop == 0.0) fault_free_msgs = med_msgs;
      const std::string alg = alg1 ? "alg1" : "alg2";
      table.add_row({pct(drop) + "%", alg,
                     std::to_string(converged) + "/" + std::to_string(kSeeds),
                     bench::fmt(med_msgs, 0), bench::fmt(median(retransmits), 0),
                     bench::fmt(median(times), 0),
                     bench::fmt(med_msgs / fault_free_msgs, 2) + "x"});
      const std::string key = alg + "_drop" + pct(drop);
      set_gauge("a6/msgs/" + key, med_msgs);
      set_gauge("a6/retransmits/" + key, median(retransmits));
      set_gauge("a6/completion_time/" + key, median(times));
    }
  }
  table.print(std::cout);
}

void print_a6b() {
  bench::banner(std::cout,
                "A6b: MIS-maintenance recovery vs loss rate (crash + "
                "recover one node, " +
                    std::to_string(kSeeds) + " seeds, n=" +
                    std::to_string(kNodes) + ")");
  bench::Table table(
      {"drop", "recovered", "recovery ms (median)", "extra msgs (median)"});
  for (const double drop : {0.0, 0.1, 0.2, 0.3}) {
    std::vector<double> recovery_ms, extra_msgs;
    std::size_t recovered = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      auto inst = bench::connected_instance(kNodes, kDegree, seed);
      const auto lossy = fault::Plan::lossy(drop, seed * 97 + 1);
      protocols::MisMaintenanceSession session(
          inst.g, sim::DelayModel::unit(), drop > 0.0 ? &lossy : nullptr);
      // The bootstrap runs under the same loss; converge it first so the
      // measured cost is the crash and recovery alone.
      if (!session.stabilize() || !session.watchdog()) continue;
      const auto victim = static_cast<NodeId>(seed % kNodes);
      const geom::Point home = inst.points[victim];
      const auto msgs_before = session.stats().transmissions;

      const auto start = std::chrono::steady_clock::now();
      inst.points[victim] = {1e6, 1e6};
      bool ok = session.update(udg::build_udg(inst.points));
      ok = ok && session.watchdog();
      inst.points[victim] = home;
      ok = ok && session.update(udg::build_udg(inst.points));
      ok = ok && session.watchdog();
      const auto stop = std::chrono::steady_clock::now();

      if (ok) ++recovered;
      recovery_ms.push_back(
          std::chrono::duration<double, std::milli>(stop - start).count());
      extra_msgs.push_back(
          static_cast<double>(session.stats().transmissions - msgs_before));
    }
    table.add_row({pct(drop) + "%",
                   std::to_string(recovered) + "/" + std::to_string(kSeeds),
                   bench::fmt(median(recovery_ms), 2),
                   bench::fmt(median(extra_msgs), 0)});
    set_gauge("a6/recovery_ms/drop" + pct(drop), median(recovery_ms));
    set_gauge("a6/recovery_msgs/drop" + pct(drop), median(extra_msgs));
    set_gauge("a6b/recovered/drop" + pct(drop),
              static_cast<double>(recovered) / static_cast<double>(kSeeds));
  }
  table.print(std::cout);
}

void print_a6c() {
  bench::banner(std::cout,
                "A6c: DynamicWcds crash/recover repair latency (5 victims "
                "per n, localized 3-hop repair)");
  bench::Table table({"n", "crash ms (median)", "recover ms (median)",
                      "audit"});
  for (const std::uint32_t n : {200u, 800u}) {
    auto inst = bench::connected_instance(n, kDegree, 3);
    maintenance::DynamicWcds dyn(inst.points);
    std::vector<NodeId> victims;
    for (std::uint32_t i = 1; victims.size() < 5; i += 2) {
      victims.push_back(static_cast<NodeId>((i * n) / 11 % n));
    }
    std::sort(victims.begin(), victims.end());
    victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
    const auto report = maintenance::run_crash_schedule(dyn, victims);
    std::vector<double> crash_ms, recover_ms;
    for (const auto& outcome : report.outcomes) {
      crash_ms.push_back(outcome.crash_ms);
      recover_ms.push_back(outcome.recover_ms);
    }
    const bool ok = dyn.audit().ok();
    table.add_row({std::to_string(n), bench::fmt(median(crash_ms), 3),
                   bench::fmt(median(recover_ms), 3), ok ? "ok" : "FAIL"});
    set_gauge("a6/crash_repair_ms/n" + std::to_string(n), median(crash_ms));
    set_gauge("a6/recover_repair_ms/n" + std::to_string(n),
              median(recover_ms));
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: every configuration converges (the "
               "hardened transport\nretransmits through loss; crash means "
               "radio-off, so recovery is retransmit\ndeadline-bound).  Msg "
               "overhead grows with the drop rate — that is the price\nof "
               "reliability, not a protocol defect — and A6c's repair "
               "latencies stay\nflat-ish in n (3-hop locality).\n";
}

void print_tables() {
  print_a6a();
  print_a6b();
  print_a6c();
}

}  // namespace

WCDS_BENCH_MAIN(print_tables)
