// serve-inter: closed-loop request serving over a large backbone.
//
// n = 65 536 uniform nodes at expected degree 16, Algorithm II
// (centralized), 256 services with 2 advertisements per node, requests from
// uniform_requests on a perfect radio, nproc closed-loop client threads.
// Most requests resolve inter-domain, so the dense clusterhead tables and
// the per-request candidate ordering dominate.
#include <atomic>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

#include "geom/workload.h"
#include "routing/clusterhead_routing.h"
#include "serve_pipeline.h"
#include "udg/udg.h"
#include "workloads.h"

namespace perfbench {

namespace {

using wcds::service::Outcome;
using wcds::service::Resolution;

constexpr std::uint32_t kNodes = 65536;
constexpr std::size_t kRequestPool = std::size_t{1} << 20;
constexpr std::size_t kRoundSize = std::size_t{1} << 15;
constexpr int kSetups = 3;

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::uint32_t tag_of(Resolution r) { return static_cast<std::uint32_t>(r); }

// serve() outcomes of the first round (indices [0, round size)) must be
// bytewise equal to serve_batch over the same indices.
std::uint64_t batch_mismatches(const ServeSetup& s, const ServeDriver& d) {
  const std::vector<Outcome>& served = d.outcomes();
  if (d.first_index() != 0) return served.size();
  const auto batch = s.engine->serve_batch(
      std::span<const wcds::service::Request>(s.requests.data(),
                                              served.size()));
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (std::memcmp(&served[i], &batch[i], sizeof(Outcome)) != 0) ++mismatches;
  }
  return mismatches;
}

// Rounds until `seconds` of serving have been timed; outcomes are checked
// after each round, off the clock.  Returns requests per second.
double serve_for(ServeDriver& driver, ServeTally& tally, std::size_t clients,
                 double seconds, Tracer* tracer, Lane* main) {
  double timed = 0.0;
  const std::uint64_t before = tally.requests;
  while (timed < seconds) {
    {
      Span round(main, "bench.round");
      timed += driver.round(clients, tracer, round.id());
    }
    Span check(main, "check.audit");
    driver.check_round(tally);
  }
  return static_cast<double>(tally.requests - before) / timed;
}

}  // namespace

std::string ServeSetup::inputs_hash() const {
  InputHash hash;
  hash.add(std::span<const wcds::geom::Point>(points));
  hash.add_graph(g);
  for (wcds::NodeId u = 0; u < registry.node_count(); ++u) {
    hash.add(registry.services_at(u));
  }
  hash.add(std::span<const wcds::service::Request>(requests));
  return hash.hex();
}

std::unique_ptr<ServeSetup> setup_serve(std::uint32_t n, std::uint64_t seed,
                                        std::size_t requests, Lane* lane) {
  auto s = std::make_unique<ServeSetup>();
  wcds::geom::WorkloadParams params;
  params.kind = wcds::geom::WorkloadKind::kUniform;
  params.count = n;
  params.side = wcds::geom::side_for_expected_degree(n, kServeDegree);
  params.seed = mix_seed(seed, 1);
  for (int attempt = 0;; ++attempt) {
    {
      Span span(lane, "geom.generate");
      s->points = wcds::geom::generate(params);
    }
    {
      Span span(lane, "udg.build");
      s->g = wcds::udg::build_udg(s->points);
    }
    {
      Span span(lane, "graph.components");
      s->cc = wcds::graph::connected_components(s->g);
    }
    if (s->cc.count == 1) break;
    if (attempt == 255) throw std::runtime_error("serve: no connected layout");
    params.side *= 0.99;
    params.seed = mix_seed(params.seed, 0);
  }
  {
    Span span(lane, "facade.build");
    wcds::core::BuildOptions options;
    options.algorithm = wcds::core::BuildAlgorithm::kAlgorithm2Central;
    s->build = wcds::core::build(s->g, options);
  }
  {
    Span span(lane, "service.registry");
    s->registry = wcds::service::uniform_registry(
        n, kServiceUniverse, kServicesPerNode, mix_seed(seed, 2));
  }
  {
    const double rss_before = peak_rss_mb();
    Span span(lane, "service.engine_ctor");
    s->engine = std::make_unique<wcds::service::ServingEngine>(
        s->g, s->build.algorithm2_view(), s->registry);
    span.stop();
    s->engine_rss_mb = peak_rss_mb() - rss_before;
  }
  {
    Span span(lane, "service.requests");
    s->requests = wcds::service::uniform_requests(s->registry, requests,
                                                  mix_seed(seed, 3));
  }
  return s;
}

ServeDriver::ServeDriver(const ServeSetup& setup, std::size_t max_clients,
                         std::size_t round_size)
    : setup_(setup), outcomes_(round_size), logs_(max_clients) {}

double ServeDriver::round(std::size_t clients, Tracer* tracer,
                          SpanId parent) {
  begin_ = next_;
  next_ += outcomes_.size();
  const std::uint64_t end = next_;
  std::atomic<std::uint64_t> next{begin_};
  std::vector<std::exception_ptr> errors(clients);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t k = 0; k < clients; ++k) {
      threads.emplace_back([&, k] {
        try {
          Lane* lane = tracer != nullptr ? tracer->worker(k) : nullptr;
          if (lane != nullptr) lane->set_root(parent);
          LatencyLog& log = logs_[k];
          const auto& requests = setup_.requests;
          for (;;) {
            const std::uint64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= end) break;
            const auto t0 = Clock::now();
            const Outcome outcome =
                setup_.engine->serve(requests[i % requests.size()], i);
            const auto t1 = Clock::now();
            outcomes_[i - begin_] = outcome;
            log.add_ns(std::chrono::duration_cast<std::chrono::nanoseconds>(
                t1 - t0).count());
            if (lane != nullptr) {
              lane->record("service.serve", i, t0, t1,
                           tag_of(outcome.resolution));
            }
          }
        } catch (...) {
          errors[k] = std::current_exception();
        }
      });
    }
  }
  const double seconds = ms_between(start, Clock::now()) / 1000.0;
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return seconds;
}

void ServeDriver::check_round(ServeTally& tally) const {
  const auto& requests = setup_.requests;
  const std::size_t n = setup_.g.node_count();
  for (std::size_t j = 0; j < outcomes_.size(); ++j) {
    const Outcome& o = outcomes_[j];
    const auto& req = requests[(begin_ + j) % requests.size()];
    ++tally.requests;
    ++tally.by_resolution[tag_of(o.resolution) % 6];
    tally.retries += o.retries;
    tally.bloom_fp += o.bloom_fp;
    const bool good = o.delivered != 0 && o.provider < n &&
                      setup_.registry.provides(o.provider, req.service);
    if (good) {
      ++tally.delivered;
      tally.hops += o.hops;
    } else {
      ++tally.bad;
    }
    if (o.resolution == Resolution::kInterDomain) {
      ++tally.inter;
      tally.inter_delivered += o.delivered;
      tally.inter_candidates += setup_.engine->advertisers(req.service).size();
      tally.inter_probes += o.bloom_fp + (o.delivered != 0 ? 1u : 0u);
    }
  }
}

LatencyLog ServeDriver::latency() const {
  LatencyLog merged;
  for (const LatencyLog& log : logs_) merged.merge(log);
  return merged;
}

void ServeDriver::reset_latency() {
  for (LatencyLog& log : logs_) log = LatencyLog();
}

Report run_serve_inter(const Args& args, Tracer* tracer) {
  Report rep;
  const std::size_t clients = nproc();
  Lane* main = tracer != nullptr ? tracer->main() : nullptr;

  // Set-up: repeated in the untraced run, each from scratch, and reported as
  // the median; the first sample counts from process start.
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> s;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    s.reset();
    const auto start = k == 0 ? process_start() : Clock::now();
    {
      Span span(main, "bench.setup");
      s = setup_serve(kNodes, args.seed, kRequestPool, main);
    }
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    const std::string hash = s->inputs_hash();
    if (k == 0) rep.inputs_hash = hash;
    rep.fail(hash != rep.inputs_hash ? 1 : 0, "set-up inputs differ");
  }
  const double n = static_cast<double>(s->g.node_count());

  // Standalone router from the same view (traced run only).
  double router_ms = 0.0;
  double router_rss_mb = 0.0;
  std::size_t heads = 0;
  std::size_t overlay_edges = 0;
  if (args.trace) {
    const double rss_before = peak_rss_mb();
    Span span(main, "routing.ctor");
    const wcds::routing::ClusterheadRouter router(s->g,
                                                  s->build.algorithm2_view());
    router_ms = span.stop();
    router_rss_mb = peak_rss_mb() - rss_before;
    heads = router.clusterhead_count();
    overlay_edges = router.overlay_edge_count();
  }

  ServeDriver driver(*s, clients, kRoundSize);
  ServeTally warm;
  driver.round(clients);  // warm-up: indices [0, kRoundSize)
  {
    Span span(main, "check.audit");
    driver.check_round(warm);
    rep.fail(warm.bad, "warm-up request undelivered or misdelivered");
    rep.fail(batch_mismatches(*s, driver), "serve() != serve_batch outcome");
  }
  driver.reset_latency();

  ServeTally tally;
  const double rps = serve_for(driver, tally, clients,
                               args.trace ? args.seconds / 4.0 : args.seconds,
                               nullptr, main);
  double traced_rps = 0.0;
  double one_client_rps = 0.0;
  ServeTally traced;
  if (args.trace) {
    ServeTally one;
    one_client_rps = serve_for(driver, one, 1, args.seconds / 4.0, nullptr,
                               main);
    rep.fail(one.bad, "request undelivered or misdelivered");
    rep.attempted += one.requests;
    Span measure(main, "bench.measure");
    traced_rps = serve_for(driver, traced, clients, args.seconds,
                           tracer, main);
  }
  bool backbone_ok = false;
  {
    Span span(main, "check.verify");
    backbone_ok = audit_per_component(s->g, s->build.result, s->cc);
  }
  rep.fail(backbone_ok ? 0 : 1, "backbone fails core::audit_result");
  rep.fail(tally.bad + traced.bad, "request undelivered or misdelivered");
  rep.attempted += warm.requests + tally.requests + traced.requests;

  rep.line("serve_rps", rps, "1/s", std::to_string(clients) + " clients");
  rep.line("serve_hops_mean", share(tally.hops, tally.delivered), "tx/request");

  if (!args.trace) {
    const LatencyLog latency = driver.latency();
    const double p50 = latency.quantile_us(0.5);
    const double p99 = latency.quantile_us(0.99);
    const std::string samples = std::to_string(latency.count()) + " samples";
    rep.line("serve_p50_us", p50, "us", samples);
    rep.line("serve_p99_us", p99, "us", samples);
    rep.setup(setup_s);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    rep.metric("ops_per_s", rps, "1/s");
    rep.metric("op_p50_us", p50, "us");
    rep.metric("op_p99_us", p99, "us");
    rep.metric("backbone_frac", static_cast<double>(s->build.result.size()) / n,
               "ratio");
    return rep;
  }

  const Tracer& t = *tracer;
  rep.metric("geom.generate_ms", t.total_ms("geom.generate"), "ms");
  rep.metric("udg.build_ms", median(t.durations_ms("udg.build")), "ms");
  rep.metric("udg.edges_per_node",
             static_cast<double>(s->g.edge_count()) / n, "count");
  rep.metric("graph.components_ms", median(t.durations_ms("graph.components")),
             "ms");
  rep.metric("graph.components", s->cc.count, "count");
  rep.metric("facade.build_ms", t.total_ms("facade.build"), "ms");
  rep.metric("mis.size",
             static_cast<double>(s->build.result.mis_dominators.size()),
             "count");
  rep.metric("wcds.additional",
             static_cast<double>(s->build.result.additional_dominators.size()),
             "count");
  rep.metric("routing.ctor_ms", router_ms, "ms");
  rep.metric("routing.heads", static_cast<double>(heads), "count");
  rep.metric("routing.overlay_edges", static_cast<double>(overlay_edges),
             "count");
  rep.metric("routing.table_bytes",
             6.0 * static_cast<double>(heads) * static_cast<double>(heads),
             "B");
  rep.metric("routing.rss_mb", router_rss_mb, "MB");
  const double engine_ms = t.total_ms("service.engine_ctor");
  rep.metric("service.registry_ms", t.total_ms("service.registry"), "ms");
  rep.metric("service.engine_ctor_ms", engine_ms, "ms");
  rep.metric("service.engine_self_ms", engine_ms - router_ms, "ms");
  rep.metric("service.engine_rss_mb", s->engine_rss_mb, "MB");
  const char* const kShares[] = {"local", "neighbor", "intra",
                                 "inter", "no_provider", "lost"};
  for (std::uint32_t r = 0; r < 6; ++r) {
    rep.metric(std::string("service.share.") + kShares[r],
               share(traced.by_resolution[r], traced.requests), "ratio");
  }
  const auto p50_us = [&](Resolution r) {
    return median(t.durations_ms("service.serve", tag_of(r))) * 1000.0;
  };
  rep.metric("service.local_p50_us", p50_us(Resolution::kLocal), "us");
  rep.metric("service.neighbor_p50_us", p50_us(Resolution::kNeighbor), "us");
  rep.metric("service.intra_p50_us", p50_us(Resolution::kIntraDomain), "us");
  rep.metric("service.inter_p50_us", p50_us(Resolution::kInterDomain), "us");
  rep.metric("service.inter_p99_us",
             quantile(t.durations_ms("service.serve",
                                     tag_of(Resolution::kInterDomain)),
                      0.99) *
                 1000.0,
             "us");
  rep.metric("service.candidates_per_inter",
             share(traced.inter_candidates, traced.inter), "count");
  rep.metric("service.probes_per_inter",
             share(traced.inter_probes, traced.inter), "count");
  rep.metric("service.probe_yield",
             share(traced.inter_delivered, traced.inter_probes), "ratio");
  rep.metric("service.bloom_fp_per_req",
             share(traced.bloom_fp, traced.requests), "count");
  rep.metric("service.retries_per_req", share(traced.retries, traced.requests),
             "count");
  rep.metric("parallel.serve_scaling", rps / one_client_rps, "x");
  rep.metric("check.verify_ms", t.total_ms("check.verify"), "ms");
  rep.metric("check.audit_ms", t.total_ms("check.audit"), "ms");
  rep.metric("obs.trace_overhead", rps / traced_rps - 1.0, "ratio");
  return rep;
}

}  // namespace perfbench
