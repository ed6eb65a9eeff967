// Shared plumbing for the repository benchmark (perfbench/README.md):
// command-line arguments, latency recording, memory figures, input
// hashing, the per-component backbone audit, and the report every workload
// fills in.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "wcds/wcds_result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Captured during static initialization, before main: the origin of
// setup_s and of every span timestamp.
[[nodiscard]] Clock::time_point process_start();

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON path (traced runs)
};

// CPUs this process may run on (sched_getaffinity, as nproc reports).
[[nodiscard]] std::size_t nproc();

// ru_maxrss of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

// The `stream`-th SplitMix64 output for `seed`: independent sub-seeds, so
// every generated input is a pure function of --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// FNV-1a over the bytes of the generated inputs, so two runs can be shown
// to share them.
class InputHash {
 public:
  template <typename T>
  void add(std::span<const T> values) {
    add_bytes(values.data(), values.size_bytes());
  }
  template <typename T>
  void add_value(const T& value) {
    add_bytes(&value, sizeof(value));
  }
  void add_graph(const wcds::graph::Graph& g);
  [[nodiscard]] std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// Latency samples.  Samples below 2.6 ms land in fixed 10 ns buckets
// (memory independent of the sample count, so a faster program does not
// grow peak RSS); longer ones are kept exactly.
class LatencyLog {
 public:
  LatencyLog();
  void add_ns(std::int64_t ns);
  void add_us(double us) { add_ns(static_cast<std::int64_t>(us * 1000.0)); }
  void merge(const LatencyLog& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  // Linear interpolation between order statistics; 0 when empty.
  [[nodiscard]] double quantile_us(double q) const;
  [[nodiscard]] double mean_us() const;

 private:
  static constexpr std::int64_t kBucketNs = 10;
  static constexpr std::size_t kBuckets = std::size_t{1} << 18;  // 2.6 ms
  [[nodiscard]] double value_at_rank(std::uint64_t rank) const;
  std::vector<std::uint32_t> fine_;
  mutable std::vector<double> coarse_;  // exact ns, sorted lazily
  mutable bool coarse_sorted_ = true;
  std::uint64_t fine_count_ = 0;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0.0;
};

// Median / linear-interpolated quantile of a small sample vector.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

// core::audit_result on each connected component (relabelled to a
// standalone graph): audit_result judges weak connectivity over all of V,
// so a multi-component deployment is audited component by component.
[[nodiscard]] bool audit_per_component(const wcds::graph::Graph& g,
                                       const wcds::core::WcdsResult& result,
                                       const wcds::graph::Components& cc);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload hands back to main: the checked op counts, the metrics
// of the run's mode, and human-readable report lines.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed output checks, counted in operations
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  std::string inputs_hash;

  void metric(std::string_view name, double value, std::string_view unit);
  // setup_s: the median of the run's set-up times, with a report line
  // giving their count and range.
  void setup(const std::vector<double>& seconds);
  // "name value unit" report line.
  void line(std::string_view name, double value, std::string_view unit,
            std::string_view note = {});
  void fail(std::uint64_t count, std::string_view what);
};

}  // namespace perfbench
