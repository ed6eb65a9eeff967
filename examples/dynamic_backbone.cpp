// Dynamic backbone: the distributed MIS maintenance protocol keeping the
// dominator set alive while the whole fleet moves (random waypoint).
//
// Unlike mobile_maintenance (centralized bookkeeping with localized scope),
// this demo runs the *message protocol*: every role change is a COLOR
// broadcast on the simulator, whose topology changes between quiescent
// runs, and the protocol re-stabilizes after every mobility step.
//
//   $ ./dynamic_backbone [node_count] [steps] [seed]
#include <iostream>
#include <string>

#include "geom/workload.h"
#include "mis/mis.h"
#include "mobility/models.h"
#include "protocols/mis_maintenance_protocol.h"
#include "udg/udg.h"

int main(int argc, char** argv) {
  using namespace wcds;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::stoul(argv[1])) : 250;
  const std::uint32_t steps =
      argc > 2 ? static_cast<std::uint32_t>(std::stoul(argv[2])) : 30;
  const std::uint64_t seed = argc > 3 ? std::stoull(argv[3]) : 4;

  const double side = geom::side_for_expected_degree(n, 12.0);
  auto points = geom::uniform_square(n, side, seed);
  mobility::RandomWaypoint motion(points, {side, side},
                                  mobility::WaypointParams{}, seed + 1);

  protocols::MisMaintenanceSession session(udg::build_udg(points));
  if (!session.stabilize()) {
    std::cerr << "bootstrap did not stabilize\n";
    return 1;
  }
  const auto bootstrap_msgs = session.stats().transmissions;
  std::size_t initial_mis = 0;
  for (const bool b : session.mis_mask()) initial_mis += b;
  std::cout << "bootstrap: " << initial_mis << " dominators, "
            << bootstrap_msgs << " messages ("
            << static_cast<double>(bootstrap_msgs) / n << " per node)\n";

  std::size_t invalid_steps = 0;
  auto last_msgs = session.stats().transmissions;
  for (std::uint32_t step = 0; step < steps; ++step) {
    motion.step(0.5);
    const auto g = udg::build_udg(motion.positions());
    if (!session.update(g)) {
      std::cerr << "step " << step << " did not stabilize\n";
      return 1;
    }
    if (!mis::is_maximal_independent_set(g, session.mis_mask())) {
      ++invalid_steps;
    }
    last_msgs = session.stats().transmissions;
  }
  std::size_t final_mis = 0;
  for (const bool b : session.mis_mask()) final_mis += b;

  std::cout << "after " << steps << " mobility steps:\n"
            << "  maintenance messages: " << (last_msgs - bootstrap_msgs)
            << " total, "
            << static_cast<double>(last_msgs - bootstrap_msgs) / steps
            << " per step\n"
            << "  MIS invariant violations: " << invalid_steps << "\n"
            << "  final dominator count: " << final_mis << "\n";
  return invalid_steps == 0 ? 0 : 1;
}
