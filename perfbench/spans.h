// In-memory span recorder for the traced run (perfbench/README.md).
//
// Every call the benchmark makes into a library layer is wrapped in a Span
// named "<layer>.<call>".  A Span always measures its own wall time — the
// untraced run uses that for its latencies — and, when it belongs to a
// Lane, also appends a record (name, start, end, parent, operation id) to
// that lane.  A Lane is one thread's buffer, so recording takes no lock;
// the untraced run passes a null lane and records nothing.  Records stay in
// memory until the run ends, when the Tracer derives per-layer totals and
// self times from them and writes them as Chrome trace-event JSON.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

using SpanId = std::uint64_t;  // 0 = no span

struct SpanRecord {
  const char* name = "";  // string literal: static storage
  SpanId id = 0;
  SpanId parent = 0;
  std::uint64_t op = 0;      // request, build or event index
  std::int64_t start_ns = 0;  // since process_start()
  std::int64_t end_ns = 0;
  std::uint32_t tag = 0;      // workload-defined (serve: Resolution)
  std::uint32_t lane = 0;
};

class Lane {
 public:
  explicit Lane(std::uint32_t index) : index_(index) {}

  // Parent for spans opened on this lane while no other span is open here
  // (a client thread's calls hang under the main thread's phase span).
  void set_root(SpanId parent) { root_ = parent; }

  // Record a closed interval directly (hot loops that time themselves).
  void record(const char* name, std::uint64_t op, Clock::time_point start,
              Clock::time_point end, std::uint32_t tag = 0);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }

 private:
  friend class Span;
  SpanId next_id() { return (SpanId{index_} << 40) | ++sequence_; }
  [[nodiscard]] SpanId current_parent() const {
    return open_.empty() ? root_ : open_.back();
  }

  std::uint32_t index_;
  std::uint64_t sequence_ = 0;
  SpanId root_ = 0;
  std::vector<SpanId> open_;
  std::vector<SpanRecord> records_;
};

// RAII span.  Spans on one lane must close in LIFO order.
class Span {
 public:
  Span(Lane* lane, const char* name, std::uint64_t op = 0);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Close the span (idempotent) and return its duration in ms.
  double stop();
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  Lane* lane_;
  const char* name_;
  std::uint64_t op_;
  SpanId id_ = 0;
  SpanId parent_ = 0;
  Clock::time_point start_;
  Clock::time_point end_{};
  bool open_ = true;
};

struct LayerTime {
  std::string layer;
  std::uint64_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  // Lane 0 is the main thread; lanes 1..workers serve client threads.
  explicit Tracer(std::size_t workers);

  [[nodiscard]] Lane* main() { return lanes_[0].get(); }
  [[nodiscard]] Lane* worker(std::size_t index) {
    return lanes_[1 + index].get();
  }

  // Durations (ms) of every span called `name`, optionally only those with
  // the given tag, in record order per lane.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name,
                                                 std::uint32_t tag) const;
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] std::size_t span_count() const;

  // Per layer (name prefix before the first '.'): span count, summed
  // duration, and self time = duration minus the union of the intervals its
  // child spans cover.
  [[nodiscard]] std::vector<LayerTime> layer_times() const;

  // Chrome trace-event JSON (Perfetto reads it), written through obs/json.
  // At most `per_name_cap` spans of each name are exported; every span
  // still counts in layer_times().  Returns false if the file cannot be
  // written.
  bool write_chrome_trace(const std::string& path,
                          std::size_t per_name_cap) const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// The self-time table printed by every traced run.
[[nodiscard]] std::vector<std::string> format_layer_table(
    const std::vector<LayerTime>& layers);

}  // namespace perfbench
