#include "io/text_format.h"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace wcds::io {
namespace {

constexpr const char* kPointsMagic = "wcds-points v1";
constexpr const char* kGraphMagic = "wcds-graph v1";

std::string read_header_line(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("wcds::io: truncated input (missing header)");
  }
  return line;
}

}  // namespace

void write_points(std::ostream& os, const std::vector<geom::Point>& points) {
  os << kPointsMagic << '\n' << points.size() << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const auto& p : points) os << p.x << ' ' << p.y << '\n';
  if (!os) throw std::runtime_error("wcds::io: write_points failed");
}

std::vector<geom::Point> read_points(std::istream& is) {
  if (read_header_line(is) != kPointsMagic) {
    throw std::runtime_error("wcds::io: bad points header");
  }
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("wcds::io: bad point count");
  // No reserve(n): a header count must not size an allocation.
  std::vector<geom::Point> points;
  for (std::size_t i = 0; i < n; ++i) {
    geom::Point p;
    if (!(is >> p.x >> p.y)) {
      throw std::runtime_error("wcds::io: truncated point list");
    }
    points.push_back(p);
  }
  return points;
}

void write_graph(std::ostream& os, const graph::Graph& g) {
  os << kGraphMagic << '\n' << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const auto& [u, v] : g.edges()) os << u << ' ' << v << '\n';
  if (!os) throw std::runtime_error("wcds::io: write_graph failed");
}

graph::Graph read_graph(std::istream& is) {
  if (read_header_line(is) != kGraphMagic) {
    throw std::runtime_error("wcds::io: bad graph header");
  }
  std::size_t n = 0;
  std::size_t m = 0;
  if (!(is >> n >> m) || n > std::numeric_limits<NodeId>::max()) {
    throw std::runtime_error("wcds::io: bad graph sizes");
  }
  graph::GraphBuilder builder(n);
  for (std::size_t i = 0; i < m; ++i) {
    NodeId u = 0;
    NodeId v = 0;
    if (!(is >> u >> v)) {
      throw std::runtime_error("wcds::io: truncated edge list");
    }
    builder.add_edge(u, v);
  }
  return std::move(builder).build();
}

void save_points(const std::string& path,
                 const std::vector<geom::Point>& points) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("wcds::io: cannot open " + path);
  write_points(os, points);
}

std::vector<geom::Point> load_points(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("wcds::io: cannot open " + path);
  return read_points(is);
}

void save_graph(const std::string& path, const graph::Graph& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("wcds::io: cannot open " + path);
  write_graph(os, g);
}

graph::Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("wcds::io: cannot open " + path);
  return read_graph(is);
}

}  // namespace wcds::io
