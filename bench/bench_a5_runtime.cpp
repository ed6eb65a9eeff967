// Experiment A5: simulator hot-path performance.
//
// A5a times both distributed algorithms under both delay regimes on the
// production sim::Runtime (pooled broadcast payloads + one ring of time
// buckets) and on sim::ReferenceRuntime, the std::map queue it replaced,
// kept as a test-only oracle (tests/oracle/, docs/PERFORMANCE.md).  Each
// column constructs its runtime over the same node factory and runs it to
// quiescence.  Both deliver in identical (time, seq) order —
// tests/runtime_queue_test.cpp proves it trace by trace, and the
// a5/identical/* gauges re-check RunStats and dominators here — so the
// speedup column is a pure data-structure effect.
//
// A5b times the spanner dilation analysis serially (one lane) and on the
// WCDS_THREADS pool; outputs are byte-identical by construction
// (src/spanner/analysis.cpp), so only wall time may differ.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>

#include "bench_support/table.h"
#include "oracle/reference_runtime.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "spanner/analysis.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

// One UDG per size, shared by the table and the BM_ timings below.
const bench::Instance& instance_for(std::uint32_t n) {
  static std::map<std::uint32_t, bench::Instance> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, bench::connected_instance(n, 10.0, 1)).first;
  }
  return it->second;
}

sim::DelayModel delay_for(bool async) {
  return async ? sim::DelayModel::uniform(1, 5, 7) : sim::DelayModel::unit();
}

sim::Runtime::NodeFactory factory_for(bool alg1) {
  return [alg1](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
    if (alg1) return std::make_unique<protocols::Algorithm1Node>();
    return std::make_unique<protocols::Algorithm2Node>();
  };
}

struct TimedRun {
  double ms = 0.0;
  sim::RunStats stats;
  std::vector<NodeId> dominators;
};

// Constructs `Sim` (sim::Runtime or sim::ReferenceRuntime) over the
// protocol's nodes and runs it to quiescence; only the construction and the
// run are timed.
template <typename Sim>
TimedRun run_once(const graph::Graph& g, bool alg1, bool async) {
  const auto factory = factory_for(alg1);
  TimedRun out;
  const auto start = std::chrono::steady_clock::now();
  Sim runtime(g, factory, delay_for(async));
  out.stats = runtime.run();
  const auto stop = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    bool dominator = false;
    if (alg1) {
      dominator = static_cast<const protocols::Algorithm1Node&>(runtime.node(u))
                      .is_dominator();
    } else {
      const auto& node =
          static_cast<const protocols::Algorithm2Node&>(runtime.node(u));
      dominator = node.is_mis_dominator() || node.is_additional_dominator();
    }
    if (dominator) out.dominators.push_back(u);
  }
  return out;
}

// Three map/flat pairs, run back to back: each column's last outcome with
// its median wall time of 3, and the median of the 3 per-pair speedups.  A
// pair's two runs share the host's load, so a slow spell on a shared host
// moves both and leaves the speedup, the gated number, in place.
struct PairedRuns {
  TimedRun map;
  TimedRun flat;
  double speedup = 0.0;
};

PairedRuns median_of_3_pairs(const graph::Graph& g, bool alg1, bool async) {
  double map_ms[3];
  double flat_ms[3];
  double speedup[3];
  PairedRuns out;
  for (int i = 0; i < 3; ++i) {
    out.map = run_once<sim::ReferenceRuntime>(g, alg1, async);
    out.flat = run_once<sim::Runtime>(g, alg1, async);
    map_ms[i] = out.map.ms;
    flat_ms[i] = out.flat.ms;
    speedup[i] = map_ms[i] / flat_ms[i];
  }
  for (double* samples : {map_ms, flat_ms, speedup}) {
    std::sort(samples, samples + 3);
  }
  out.map.ms = map_ms[1];
  out.flat.ms = flat_ms[1];
  out.speedup = speedup[1];
  return out;
}

void print_tables() {
  // Timing sections run with the ambient recorder uninstalled: a recorder
  // adds a trace callback per event, which would pollute the flat-vs-map
  // comparison.  The printed rows still land in report() for --json_out.
  obs::Recorder* const ambient = obs::global_recorder();
  obs::set_global_recorder(nullptr);

  bench::banner(std::cout,
                "A5a: Runtime::run wall time, flat vs reference-map queue "
                "(median of 3 back-to-back pairs)");
  bench::Table table(
      {"n", "alg", "delays", "map ms", "flat ms", "speedup", "identical"});
  struct TimedConfig {
    std::string name;
    double ms = 0.0;
  };
  std::vector<TimedConfig> gauges;
  for (const std::uint32_t n : {512u, 2048u, 8192u}) {
    const auto& inst = instance_for(n);
    for (const bool alg1 : {true, false}) {
      for (const bool async : {false, true}) {
        const auto [map, flat, speedup] =
            median_of_3_pairs(inst.g, alg1, async);
        const double map_ms = map.ms;
        const double flat_ms = flat.ms;
        // Quiescence is part of RunStats, so a budget trip fails it too.
        const bool identical = flat.stats == map.stats &&
                               flat.dominators == map.dominators;
        table.add_row({std::to_string(n), alg1 ? "alg1" : "alg2",
                       async ? "async U(1,5)" : "sync", bench::fmt(map_ms, 2),
                       bench::fmt(flat_ms, 2),
                       bench::fmt(speedup, 2) + "x",
                       identical ? "yes" : "NO"});
        const std::string key = std::string(alg1 ? "alg1" : "alg2") +
                                (async ? "_async_n" : "_sync_n") +
                                std::to_string(n);
        gauges.push_back({"a5/map_ms/" + key, map_ms});
        gauges.push_back({"a5/flat_ms/" + key, flat_ms});
        gauges.push_back({"a5/speedup/" + key, speedup});
        gauges.push_back({"a5/identical/" + key, identical ? 1.0 : 0.0});
      }
    }
  }
  table.print(std::cout);

  bench::banner(std::cout,
                "A5b: dilation analysis, serial vs WCDS_THREADS pool");
  bench::Table par({"n", "threads", "serial ms", "parallel ms", "speedup",
                    "identical"});
  for (const std::uint32_t n : {2048u, 8192u}) {
    const auto& inst = instance_for(n);
    const auto wcds =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
            .result;
    const auto sp = core::extract_spanner(inst.g, wcds);
    spanner::TopologicalDilationStats serial_stats;
    double serial_ms = 0.0;
    {
      parallel::ThreadPool one(1);
      parallel::ScopedPool scoped(one);
      const auto start = std::chrono::steady_clock::now();
      serial_stats = spanner::topological_dilation(inst.g, sp);
      const auto stop = std::chrono::steady_clock::now();
      serial_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
    }
    const auto start = std::chrono::steady_clock::now();
    const auto parallel_stats = spanner::topological_dilation(inst.g, sp);
    const auto stop = std::chrono::steady_clock::now();
    const double parallel_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const bool identical = serial_stats.max_ratio == parallel_stats.max_ratio &&
                           serial_stats.mean_ratio == parallel_stats.mean_ratio &&
                           serial_stats.max_slack == parallel_stats.max_slack &&
                           serial_stats.pairs == parallel_stats.pairs;
    par.add_row({std::to_string(n),
                 std::to_string(parallel::default_thread_count()),
                 bench::fmt(serial_ms, 2), bench::fmt(parallel_ms, 2),
                 bench::fmt(serial_ms / parallel_ms, 2) + "x",
                 identical ? "yes" : "NO"});
  }
  par.print(std::cout);
  std::cout << "\nExpected shape: flat-queue speedup grows with n (the map "
               "pays a per-delivery\nallocation plus O(log q) pointer "
               "chasing; the bucket ring is O(1) per event\nunder either "
               "delay regime and reads contiguous 16-byte records).  A5b\n"
               "speedup tracks WCDS_THREADS on multi-core hosts and is ~1.0x "
               "single-core.\nBoth 'identical' columns must read yes on any "
               "host.\n";

  obs::set_global_recorder(ambient);
  // With the recorder back in effect, fold the wall times into the metrics
  // snapshot so --json_out carries machine-readable numbers alongside the
  // table rows.
  if (ambient != nullptr) {
    for (const TimedConfig& gauge : gauges) {
      ambient->metrics().set(gauge.name, gauge.ms);
    }
  }
}

void BM_RuntimeRun(benchmark::State& state, bool alg1, bool async,
                   bool oracle) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    if (oracle) {
      benchmark::DoNotOptimize(
          run_once<sim::ReferenceRuntime>(inst.g, alg1, async));
    } else {
      benchmark::DoNotOptimize(run_once<sim::Runtime>(inst.g, alg1, async));
    }
  }
  state.SetComplexityN(state.range(0));
}

#define WCDS_BM_RUNTIME(name, alg1, async, oracle)                      \
  BENCHMARK_CAPTURE(BM_RuntimeRun, name, alg1, async, oracle)           \
      ->Arg(512)                                                        \
      ->Arg(2048)                                                       \
      ->Arg(8192)                                                       \
      ->Unit(benchmark::kMillisecond)                                   \
      ->Complexity()

WCDS_BM_RUNTIME(alg1_sync_flat, true, false, false);
WCDS_BM_RUNTIME(alg1_sync_map, true, false, true);
WCDS_BM_RUNTIME(alg1_async_flat, true, true, false);
WCDS_BM_RUNTIME(alg1_async_map, true, true, true);
WCDS_BM_RUNTIME(alg2_sync_flat, false, false, false);
WCDS_BM_RUNTIME(alg2_sync_map, false, false, true);
WCDS_BM_RUNTIME(alg2_async_flat, false, true, false);
WCDS_BM_RUNTIME(alg2_async_map, false, true, true);

#undef WCDS_BM_RUNTIME

void BM_DilationSerial(benchmark::State& state) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  const auto wcds =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
          .result;
  const auto sp = core::extract_spanner(inst.g, wcds);
  parallel::ThreadPool one(1);
  parallel::ScopedPool scoped(one);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::topological_dilation(inst.g, sp));
  }
}
BENCHMARK(BM_DilationSerial)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_DilationParallel(benchmark::State& state) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  const auto wcds =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
          .result;
  const auto sp = core::extract_spanner(inst.g, wcds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::topological_dilation(inst.g, sp));
  }
}
BENCHMARK(BM_DilationParallel)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
