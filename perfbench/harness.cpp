#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "geom/rng.h"
#include "graph/types.h"
#include "wcds/verify.h"

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return wcds::geom::SplitMix64(seed + 0x9e3779b97f4a7c15ULL * stream).next();
}

void InputHash::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
}

void InputHash::add_graph(const wcds::graph::Graph& g) {
  add_value(g.node_count());
  for (wcds::NodeId u = 0; u < g.node_count(); ++u) add(g.neighbors(u));
}

std::string InputHash::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

LatencyLog::LatencyLog() : fine_(kBuckets, 0) {}

void LatencyLog::add_ns(std::int64_t ns) {
  ns = std::max<std::int64_t>(ns, 0);
  const auto bucket = static_cast<std::size_t>(ns / kBucketNs);
  if (bucket < kBuckets) {
    ++fine_[bucket];
    ++fine_count_;
  } else {
    coarse_.push_back(static_cast<double>(ns));
    coarse_sorted_ = false;
  }
  ++count_;
  sum_ns_ += static_cast<double>(ns);
}

void LatencyLog::merge(const LatencyLog& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) fine_[i] += other.fine_[i];
  coarse_.insert(coarse_.end(), other.coarse_.begin(), other.coarse_.end());
  coarse_sorted_ = coarse_.empty();
  fine_count_ += other.fine_count_;
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
}

// Value of the rank-th smallest sample (0-based), in ns.  Within a fine
// bucket the samples are taken as evenly spread over its 10 ns width.
double LatencyLog::value_at_rank(std::uint64_t rank) const {
  if (rank < fine_count_) {
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (fine_[i] == 0) continue;
      if (rank < seen + fine_[i]) {
        const double within = (static_cast<double>(rank - seen) + 0.5) /
                              static_cast<double>(fine_[i]);
        return (static_cast<double>(i) + within) *
               static_cast<double>(kBucketNs);
      }
      seen += fine_[i];
    }
  }
  if (!coarse_sorted_) {
    std::sort(coarse_.begin(), coarse_.end());
    coarse_sorted_ = true;
  }
  return coarse_[rank - fine_count_];
}

double LatencyLog::quantile_us(double q) const {
  if (count_ == 0) return 0.0;
  const double position = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(std::floor(position));
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = position - static_cast<double>(lo);
  const double value =
      value_at_rank(lo) + frac * (value_at_rank(hi) - value_at_rank(lo));
  return value / 1000.0;
}

double LatencyLog::mean_us() const {
  return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_) / 1000.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

bool audit_per_component(const wcds::graph::Graph& g,
                         const wcds::core::WcdsResult& result,
                         const wcds::graph::Components& cc) {
  using wcds::NodeId;
  const std::size_t n = g.node_count();
  if (result.mask.size() != n || result.color.size() != n) return false;
  if (cc.count == 1) return wcds::core::audit_result(g, result);

  std::vector<std::vector<NodeId>> members(cc.count);
  std::vector<NodeId> local(n);
  for (NodeId u = 0; u < n; ++u) {
    local[u] = static_cast<NodeId>(members[cc.label[u]].size());
    members[cc.label[u]].push_back(u);
  }
  for (std::uint32_t c = 0; c < cc.count; ++c) {
    const std::vector<NodeId>& nodes = members[c];
    wcds::graph::GraphBuilder builder(nodes.size());
    wcds::core::WcdsResult sub;
    sub.mask.assign(nodes.size(), false);
    sub.color.resize(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId u = nodes[i];
      for (const NodeId v : g.neighbors(u)) {
        if (u < v) builder.add_edge(local[u], local[v]);
      }
      sub.mask[i] = result.mask[u];
      sub.color[i] = result.color[u];
      if (result.mask[u]) sub.dominators.push_back(static_cast<NodeId>(i));
    }
    for (const NodeId u : result.mis_dominators) {
      if (u < n && cc.label[u] == c) sub.mis_dominators.push_back(local[u]);
    }
    for (const NodeId u : result.additional_dominators) {
      if (u < n && cc.label[u] == c) {
        sub.additional_dominators.push_back(local[u]);
      }
    }
    if (!wcds::core::audit_result(std::move(builder).build(), sub)) {
      return false;
    }
  }
  return true;
}

void Report::metric(std::string_view name, double value,
                    std::string_view unit) {
  metrics.push_back({std::string(name), value, std::string(unit)});
}

void Report::setup(const std::vector<double>& seconds) {
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  char range[96];
  std::snprintf(range, sizeof(range), "%zu set-ups, median; range %.4g-%.4g",
                seconds.size(), *lo, *hi);
  line("setup_s", median(seconds), "s", range);
  metric("setup_s", median(seconds), "s");
}

void Report::line(std::string_view name, double value, std::string_view unit,
                  std::string_view note) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  std::string text = std::string(name) + " " + buffer + " " + std::string(unit);
  if (!note.empty()) text += "  (" + std::string(note) + ")";
  lines.push_back(std::move(text));
}

void Report::fail(std::uint64_t count, std::string_view what) {
  if (count == 0) return;
  failed += count;
  lines.push_back("CHECK FAILED: " + std::to_string(count) + " x " +
                  std::string(what));
}

}  // namespace perfbench
