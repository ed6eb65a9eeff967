// Non-gated scaling sweep: the serve-inter pipeline at n = 2^12 .. 2^16.
//
// For every n it times each layer call once (one span each), serves a fixed
// request count from a single client, and prints per-layer milliseconds,
// the bytes of the graph and of the dense head tables, and the
// least-squares slope of log(value) against log(n).  A slope
// near 1 is linear scaling; engine construction above 1 is the dense
// clusterhead-table wall.  Nothing here is compared between commits.
#include <cmath>
#include <cstdio>

#include "routing/clusterhead_routing.h"
#include "serve_pipeline.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kRoundSize = std::size_t{1} << 14;
constexpr int kRounds = 4;  // requests served per n: 2^16

// Least-squares slope of log(y) against log(x).
double slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += std::log(xs[i]);
    my += std::log(ys[i]);
  }
  mx /= static_cast<double>(xs.size());
  my /= static_cast<double>(xs.size());
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = std::log(xs[i]) - mx;
    num += dx * (std::log(ys[i]) - my);
    den += dx * dx;
  }
  return num / den;
}

}  // namespace

int run_sweep(const Args& args) {
  struct Row {
    const char* name;
    const char* unit;
    std::vector<double> values;
  };
  std::vector<Row> rows = {
      {"geom.generate", "ms", {}},       {"udg.build", "ms", {}},
      {"graph.components", "ms", {}},    {"facade.build", "ms", {}},
      {"service.registry", "ms", {}},    {"routing.ctor", "ms", {}},
      {"service.engine_ctor", "ms", {}}, {"service.serve", "us/req", {}},
      {"udg.graph_bytes", "B", {}},      {"routing.table_bytes", "B", {}},
  };
  std::vector<double> sizes;
  for (std::uint32_t n = 1u << 12; n <= 1u << 16; n <<= 1) {
    Tracer tracer(1);
    std::unique_ptr<ServeSetup> s =
        setup_serve(n, args.seed, kRoundSize * kRounds, tracer.main());
    double router_ms = 0.0;
    double heads = 0.0;
    {
      Span span(tracer.main(), "routing.ctor");
      const wcds::routing::ClusterheadRouter router(s->g,
                                                    s->build.algorithm2_view());
      router_ms = span.stop();
      heads = static_cast<double>(router.clusterhead_count());
    }
    ServeDriver driver(*s, 1, kRoundSize);
    for (int r = 0; r < kRounds; ++r) driver.round(1);
    const double values[] = {
        tracer.total_ms("geom.generate"),
        tracer.total_ms("udg.build"),
        tracer.total_ms("graph.components"),
        tracer.total_ms("facade.build"),
        tracer.total_ms("service.registry"),
        router_ms,
        tracer.total_ms("service.engine_ctor"),
        driver.latency().mean_us(),
        4.0 * static_cast<double>(n + 1 + s->g.adjacency_slots()),  // CSR
        6.0 * heads * heads,
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].values.push_back(values[i]);
    }
    sizes.push_back(n);
    std::fprintf(stderr, "sweep: n=%u done\n", n);
  }

  std::printf("serve-inter pipeline scaling (seed %llu, 1 client)\n",
              static_cast<unsigned long long>(args.seed));
  std::printf("%-22s %-7s", "layer", "unit");
  for (const double n : sizes) std::printf(" %12.0f", n);
  std::printf(" %8s\n", "slope");
  for (const Row& row : rows) {
    std::printf("%-22s %-7s", row.name, row.unit);
    for (const double v : row.values) std::printf(" %12.3f", v);
    std::printf(" %8.2f\n", slope(sizes, row.values));
  }
  return 0;
}

}  // namespace perfbench
