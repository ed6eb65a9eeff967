// The serve-inter pipeline, shared by the serve-inter workload and the
// scaling sweep: uniform points -> UDG -> Algorithm II (centralized) ->
// service registry -> ServingEngine, plus the closed-loop client driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "facade/build.h"
#include "geom/point.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "service/engine.h"
#include "service/registry.h"
#include "spans.h"

namespace perfbench {

inline constexpr double kServeDegree = 16.0;
inline constexpr std::size_t kServiceUniverse = 256;  // the A7 registry shape
inline constexpr std::size_t kServicesPerNode = 2;

// Owns every input the engine borrows; heap-allocated and never moved.
struct ServeSetup {
  std::vector<wcds::geom::Point> points;
  wcds::graph::Graph g;
  wcds::graph::Components cc;
  wcds::core::BuildReport build;
  wcds::service::ServiceRegistry registry{0};
  std::unique_ptr<wcds::service::ServingEngine> engine;
  std::vector<wcds::service::Request> requests;
  double engine_rss_mb = 0.0;  // ru_maxrss delta across the engine ctor

  // Hash of the generated inputs (points, graph, registry, requests).
  [[nodiscard]] std::string inputs_hash() const;
};

// Generates and builds everything, one span per library call on `lane`
// (null: untraced).  Placement is retried on a 1 % smaller square until the
// UDG is connected, as the centralized build requires.
[[nodiscard]] std::unique_ptr<ServeSetup> setup_serve(std::uint32_t n,
                                                      std::uint64_t seed,
                                                      std::size_t requests,
                                                      Lane* lane);

// Aggregates of checked outcomes.
struct ServeTally {
  std::uint64_t requests = 0;
  std::uint64_t bad = 0;  // undelivered or delivered to a non-provider
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;
  std::uint64_t retries = 0;
  std::uint64_t bloom_fp = 0;
  std::uint64_t by_resolution[6] = {};
  std::uint64_t inter = 0;
  std::uint64_t inter_delivered = 0;
  std::uint64_t inter_candidates = 0;  // sum of advertisers(s).size()
  std::uint64_t inter_probes = 0;      // domains visited
};

// Closed-loop clients: each client thread calls serve(request, i) for the
// next index as soon as its previous call returns.  Work is issued in
// rounds of fixed size so outcomes can be checked between rounds, outside
// the timed phase, in memory that does not grow with throughput.
class ServeDriver {
 public:
  ServeDriver(const ServeSetup& setup, std::size_t max_clients,
              std::size_t round_size);

  // Serves the next round_size request indices; returns wall seconds.
  // With a tracer, client k records one span per call on worker lane k,
  // parented to `parent`.
  double round(std::size_t clients, Tracer* tracer = nullptr,
               SpanId parent = 0);

  // Checks the last round's outcomes and folds them into `tally`.
  void check_round(ServeTally& tally) const;

  // Outcomes of the last round, by request index - first_index().
  [[nodiscard]] const std::vector<wcds::service::Outcome>& outcomes() const {
    return outcomes_;
  }
  [[nodiscard]] std::uint64_t first_index() const { return begin_; }

  [[nodiscard]] LatencyLog latency() const;
  void reset_latency();

 private:
  const ServeSetup& setup_;
  std::vector<wcds::service::Outcome> outcomes_;
  std::vector<LatencyLog> logs_;  // one per client
  std::uint64_t begin_ = 0;
  std::uint64_t next_ = 0;
};

}  // namespace perfbench
