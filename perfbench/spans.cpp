#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace perfbench {

namespace {

std::int64_t since_start_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t - process_start())
      .count();
}

std::string layer_of(const char* name) {
  const std::string_view view(name);
  return std::string(view.substr(0, view.find('.')));
}

}  // namespace

void Lane::record(const char* name, std::uint64_t op, Clock::time_point start,
                  Clock::time_point end, std::uint32_t tag) {
  records_.push_back({name, next_id(), current_parent(), op,
                      since_start_ns(start), since_start_ns(end), tag,
                      index_});
}

Span::Span(Lane* lane, const char* name, std::uint64_t op)
    : lane_(lane), name_(name), op_(op) {
  if (lane_ != nullptr) {
    parent_ = lane_->current_parent();
    id_ = lane_->next_id();
    lane_->open_.push_back(id_);
  }
  start_ = Clock::now();
}

double Span::stop() {
  if (open_) {
    end_ = Clock::now();
    open_ = false;
    if (lane_ != nullptr) {
      lane_->open_.pop_back();
      lane_->records_.push_back({name_, id_, parent_, op_,
                                 since_start_ns(start_), since_start_ns(end_),
                                 0, lane_->index_});
    }
  }
  return ms_between(start_, end_);
}

Tracer::Tracer(std::size_t workers) {
  for (std::size_t i = 0; i <= workers; ++i) {
    lanes_.push_back(std::make_unique<Lane>(static_cast<std::uint32_t>(i)));
  }
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->records()) {
      if (name == r.name) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      }
    }
  }
  return out;
}

std::vector<double> Tracer::durations_ms(std::string_view name,
                                         std::uint32_t tag) const {
  std::vector<double> out;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->records()) {
      if (r.tag == tag && name == r.name) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e6);
      }
    }
  }
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const double ms : durations_ms(name)) total += ms;
  return total;
}

std::size_t Tracer::span_count() const {
  std::size_t count = 0;
  for (const auto& lane : lanes_) count += lane->records().size();
  return count;
}

std::vector<LayerTime> Tracer::layer_times() const {
  // Child intervals per parent span.
  std::unordered_map<SpanId, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->records()) {
      if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->records()) {
      const std::int64_t duration = r.end_ns - r.start_ns;
      std::int64_t covered = 0;
      if (auto it = children.find(r.id); it != children.end()) {
        auto& intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        std::int64_t lo = r.start_ns;  // covered up to here
        for (auto [start, end] : intervals) {
          start = std::max(start, lo);
          end = std::min(end, r.end_ns);
          if (end > start) {
            covered += end - start;
            lo = end;
          }
        }
      }
      LayerTime& layer = layers[layer_of(r.name)];
      ++layer.spans;
      layer.total_ms += static_cast<double>(duration) / 1e6;
      layer.self_ms += static_cast<double>(duration - covered) / 1e6;
    }
  }
  std::vector<LayerTime> out;
  for (auto& [name, layer] : layers) {
    layer.layer = name;
    out.push_back(layer);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path,
                                std::size_t per_name_cap) const {
  std::ofstream file(path);
  if (!file) return false;
  std::map<std::string_view, std::size_t> exported;
  std::size_t dropped = 0;
  file << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& lane : lanes_) {
    for (const SpanRecord& r : lane->records()) {
      std::size_t& count = exported[r.name];
      if (count >= per_name_cap) {
        ++dropped;
        continue;
      }
      ++count;
      wcds::obs::Json event = wcds::obs::Json::object();
      event["name"] = r.name;
      event["cat"] = layer_of(r.name);
      event["ph"] = "X";
      event["ts"] = static_cast<double>(r.start_ns) / 1e3;
      event["dur"] = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      event["pid"] = 1;
      event["tid"] = r.lane;
      wcds::obs::Json args = wcds::obs::Json::object();
      args["id"] = r.id;
      args["parent"] = r.parent;
      args["op"] = r.op;
      args["tag"] = r.tag;
      event["args"] = std::move(args);
      file << (first ? "" : ",\n") << event.dump(-1);
      first = false;
    }
  }
  wcds::obs::Json other = wcds::obs::Json::object();
  other["spans"] = static_cast<std::uint64_t>(span_count());
  other["dropped_from_export"] = static_cast<std::uint64_t>(dropped);
  other["per_name_cap"] = static_cast<std::uint64_t>(per_name_cap);
  file << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << other.dump(-1)
       << "}\n";
  return static_cast<bool>(file);
}

std::vector<std::string> format_layer_table(
    const std::vector<LayerTime>& layers) {
  std::vector<std::string> out;
  out.emplace_back("self time by layer (from spans):");
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "  %-12s %10s %14s %14s", "layer",
                "spans", "total_ms", "self_ms");
  out.emplace_back(buffer);
  for (const LayerTime& layer : layers) {
    std::snprintf(buffer, sizeof(buffer), "  %-12s %10llu %14.3f %14.3f",
                  layer.layer.c_str(),
                  static_cast<unsigned long long>(layer.spans),
                  layer.total_ms, layer.self_ms);
    out.emplace_back(buffer);
  }
  return out;
}

}  // namespace perfbench
