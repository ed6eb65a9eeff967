// The benchmark's workloads (perfbench/README.md).  Each runs in its own
// process: the untraced run (null tracer) fills Report::metrics with the
// end-to-end metrics, the traced run with the per-layer metrics of the
// layers the workload exercises.  `args.trace` and the tracer agree.
#pragma once

#include "harness.h"
#include "spans.h"

namespace perfbench {

[[nodiscard]] Report run_serve_inter(const Args& args, Tracer* tracer);
[[nodiscard]] Report run_build_fleet_lossy(const Args& args, Tracer* tracer);
[[nodiscard]] Report run_churn_waypoint(const Args& args, Tracer* tracer);

// Non-gated scaling sweep of the serve-inter pipeline (prints a table).
int run_sweep(const Args& args);

}  // namespace perfbench
