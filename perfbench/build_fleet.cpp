// build-fleet-lossy: back-to-back distributed Algorithm II builds of a
// multi-component fleet over a lossy radio.
//
// 16 disjoint connected components of 1 024 nodes each (expected degree
// 10), laid out far apart with node ids interleaved across components (the
// A8 fleet shape), built with core::build in kAlgorithm2Protocol mode under
// fault::Plan::lossy(0.10), component-sharded on nproc threads.  One build
// is one operation.  Time goes to the simulator, the protocols, the
// hardened transport and the thread pool; routing and serving are bypassed.
#include <algorithm>
#include <stdexcept>

#include "facade/build.h"
#include "fault/hardened.h"
#include "fault/plan.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "spans.h"
#include "udg/udg.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kComponents = 16;
constexpr std::uint32_t kPerComponent = 1024;
constexpr double kDegree = 10.0;
constexpr double kLoss = 0.10;
constexpr int kSetups = 15;
constexpr int kSerialBuilds = 2;

struct Fleet {
  std::vector<wcds::geom::Point> points;
  wcds::graph::Graph g;
  wcds::graph::Components cc;
};

Fleet make_fleet(std::uint64_t seed, Lane* lane) {
  std::vector<std::vector<wcds::geom::Point>> parts(kComponents);
  for (std::uint32_t c = 0; c < kComponents; ++c) {
    wcds::geom::WorkloadParams params;
    params.kind = wcds::geom::WorkloadKind::kUniform;
    params.count = kPerComponent;
    params.side = wcds::geom::side_for_expected_degree(kPerComponent, kDegree);
    params.seed = mix_seed(seed, 100 + c);
    for (int attempt = 0;; ++attempt) {
      {
        Span span(lane, "geom.generate", c);
        parts[c] = wcds::geom::generate(params);
      }
      wcds::graph::Graph part;
      {
        Span span(lane, "udg.build_part", c);
        part = wcds::udg::build_udg(parts[c]);
      }
      bool connected = false;
      {
        Span span(lane, "graph.is_connected", c);
        connected = wcds::graph::is_connected(part);
      }
      if (connected) break;
      if (attempt == 255) throw std::runtime_error("fleet: no connected part");
      params.side *= 0.99;
      params.seed = mix_seed(params.seed, 0);
    }
    for (auto& p : parts[c]) p.x += 1000.0 * static_cast<double>(c);
  }
  Fleet fleet;
  fleet.points.reserve(std::size_t{kComponents} * kPerComponent);
  for (std::uint32_t j = 0; j < kPerComponent; ++j) {
    for (std::uint32_t c = 0; c < kComponents; ++c) {
      fleet.points.push_back(parts[c][j]);
    }
  }
  {
    Span span(lane, "udg.build");
    fleet.g = wcds::udg::build_udg(fleet.points);
  }
  {
    Span span(lane, "graph.components");
    fleet.cc = wcds::graph::connected_components(fleet.g);
  }
  if (fleet.cc.count != kComponents) {
    throw std::runtime_error("fleet: components merged");
  }
  return fleet;
}

std::string fleet_hash(const Fleet& fleet, std::uint64_t plan_seed) {
  InputHash hash;
  hash.add(std::span<const wcds::geom::Point>(fleet.points));
  hash.add_graph(fleet.g);
  hash.add_value(plan_seed);
  return hash.hex();
}

// Times back-to-back builds until `seconds` of building have elapsed; each
// build is checked after its clock stops.  Returns builds per second.
double build_for(const Fleet& fleet, const wcds::core::BuildOptions& options,
                 const wcds::sim::RunStats& reference, double seconds,
                 Lane* lane, LatencyLog& latency, Report& rep,
                 std::uint64_t& index) {
  double timed = 0.0;
  std::uint64_t builds = 0;
  while (timed < seconds) {
    const std::uint64_t op = index++;
    Span span(lane, "protocols.build", op);
    const wcds::core::BuildReport report = wcds::core::build(fleet.g, options);
    const double ms = span.stop();
    timed += ms / 1000.0;
    latency.add_us(ms * 1000.0);
    ++builds;
    ++rep.attempted;
    bool verified = false;
    {
      Span check(lane, "check.verify", op);
      verified = report.stats.quiescent &&
                 audit_per_component(fleet.g, report.result, fleet.cc);
    }
    rep.fail(verified ? 0 : 1, "build not quiescent or fails audit_result");
    bool repeated = false;
    {
      Span check(lane, "check.audit", op);
      repeated = report.stats == reference;
    }
    rep.fail(repeated ? 0 : 1, "build RunStats differ from the first build");
  }
  return static_cast<double>(builds) / timed;
}

}  // namespace

Report run_build_fleet_lossy(const Args& args, Tracer* tracer) {
  Report rep;
  const std::size_t threads = nproc();
  Lane* main = tracer != nullptr ? tracer->main() : nullptr;

  const std::uint64_t plan_seed = mix_seed(args.seed, 4);
  std::vector<double> setup_s;
  Fleet fleet;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    fleet = Fleet();
    const auto start = k == 0 ? process_start() : Clock::now();
    {
      Span span(main, "bench.setup");
      fleet = make_fleet(args.seed, main);
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    const std::string hash = fleet_hash(fleet, plan_seed);
    if (k == 0) rep.inputs_hash = hash;
    rep.fail(hash != rep.inputs_hash ? 1 : 0, "set-up inputs differ");
  }
  const double n = static_cast<double>(fleet.g.node_count());

  const wcds::fault::Plan plan = wcds::fault::Plan::lossy(kLoss, plan_seed);
  wcds::core::BuildOptions options;
  options.algorithm = wcds::core::BuildAlgorithm::kAlgorithm2Protocol;
  options.faults = &plan;
  options.threads = threads;

  // Warm-up build: fills the pool and allocator, and gives the RunStats
  // every later build must repeat.
  const wcds::core::BuildReport first = wcds::core::build(fleet.g, options);
  ++rep.attempted;
  rep.fail(first.stats.quiescent &&
                   audit_per_component(fleet.g, first.result, fleet.cc)
               ? 0
               : 1,
           "build not quiescent or fails audit_result");
  const wcds::sim::RunStats& stats = first.stats;

  LatencyLog latency;
  std::uint64_t index = 0;
  const double builds_per_s =
      build_for(fleet, options, stats, args.trace ? args.seconds / 4.0
                                                  : args.seconds,
                nullptr, latency, rep, index);

  const double tx_per_node = static_cast<double>(stats.transmissions) / n;
  rep.line("build_nodes_per_s", builds_per_s * n, "1/s",
           std::to_string(threads) + " threads");
  rep.line("build_tx_per_node", tx_per_node, "tx/node");

  if (!args.trace) {
    const double p50 = latency.quantile_us(0.5);
    const double p99 = latency.quantile_us(0.99);
    const std::string samples = std::to_string(latency.count()) + " samples";
    rep.line("build_p50_us", p50, "us", samples);
    rep.line("build_p99_us", p99, "us", samples);
    rep.setup(setup_s);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("ops_per_s", builds_per_s, "1/s");
    rep.metric("op_p50_us", p50, "us");
    rep.metric("op_p99_us", p99, "us");
    rep.metric("backbone_frac", static_cast<double>(first.result.size()) / n,
               "ratio");
    return rep;
  }

  // Traced segment, then the single-thread and null-plan comparison builds.
  double traced_per_s = 0.0;
  {
    Span measure(main, "bench.measure");
    LatencyLog traced_latency;
    traced_per_s = build_for(fleet, options, stats, args.seconds, main,
                             traced_latency, rep, index);
  }
  wcds::core::BuildOptions serial = options;
  serial.threads = 1;
  for (int b = 0; b < kSerialBuilds; ++b) {
    Span span(main, "protocols.build_serial", b);
    const wcds::core::BuildReport report = wcds::core::build(fleet.g, serial);
    span.stop();
    ++rep.attempted;
    rep.fail(report.stats == stats &&
                     audit_per_component(fleet.g, report.result, fleet.cc)
                 ? 0
                 : 1,
             "single-thread build differs or fails audit_result");
  }
  wcds::core::BuildOptions perfect = options;
  perfect.faults = nullptr;
  std::uint64_t null_tx = 0;
  {
    Span span(main, "protocols.build_null");
    const wcds::core::BuildReport report = wcds::core::build(fleet.g, perfect);
    span.stop();
    ++rep.attempted;
    rep.fail(report.stats.quiescent &&
                     audit_per_component(fleet.g, report.result, fleet.cc)
                 ? 0
                 : 1,
             "null-plan build not quiescent or fails audit_result");
    null_tx = report.stats.transmissions;
  }

  std::vector<std::uint32_t> sizes(fleet.cc.count, 0);
  for (const std::uint32_t label : fleet.cc.label) ++sizes[label];
  const std::uint32_t largest = *std::max_element(sizes.begin(), sizes.end());
  const auto ack = stats.per_type.find(wcds::fault::kMsgAck);
  const double acks =
      ack == stats.per_type.end() ? 0.0 : static_cast<double>(ack->second);
  const double tx = static_cast<double>(stats.transmissions);
  const Tracer& t = *tracer;
  const double build_ms = median(t.durations_ms("protocols.build"));

  rep.metric("geom.generate_ms", t.total_ms("geom.generate"), "ms");
  rep.metric("udg.build_ms", t.total_ms("udg.build"), "ms");
  rep.metric("udg.edges_per_node",
             static_cast<double>(fleet.g.edge_count()) / n, "count");
  rep.metric("graph.components_ms", t.total_ms("graph.components"), "ms");
  rep.metric("graph.components", fleet.cc.count, "count");
  rep.metric("mis.size",
             static_cast<double>(first.result.mis_dominators.size()), "count");
  rep.metric("wcds.additional",
             static_cast<double>(first.result.additional_dominators.size()),
             "count");
  rep.metric("sim.tx_per_node", tx_per_node, "count");
  rep.metric("sim.deliveries_per_tx",
             static_cast<double>(stats.deliveries) / tx, "ratio");
  rep.metric("sim.timer_fires", static_cast<double>(stats.timer_fires),
             "count");
  rep.metric("sim.completion_time", static_cast<double>(stats.completion_time),
             "ticks");
  rep.metric("fault.ack_share", acks / tx, "ratio");
  rep.metric("fault.tx_overhead", tx / static_cast<double>(null_tx), "x");
  rep.metric("parallel.build_speedup",
             median(t.durations_ms("protocols.build_serial")) / build_ms, "x");
  rep.metric("parallel.largest_shard_frac", static_cast<double>(largest) / n,
             "ratio");
  rep.metric("protocols.build_ms", build_ms, "ms");
  rep.metric("check.verify_ms", t.total_ms("check.verify"), "ms");
  rep.metric("check.audit_ms", t.total_ms("check.audit"), "ms");
  rep.metric("obs.trace_overhead", builds_per_s / traced_per_s - 1.0, "ratio");
  return rep;
}

}  // namespace perfbench
