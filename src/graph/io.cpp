#include "graph/io.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/fault_injection.hpp"

namespace gapart {

namespace {

std::string next_data_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') return line;
  }
  return {};
}

/// Like next_data_line but keeps empty lines: a vertex with no neighbours is
/// written as an empty line, which must stay aligned with its vertex id.
/// nullopt at EOF — the caller decides whether running out of lines is a
/// truncated file (it is, whenever vertex lines are still owed).
std::optional<std::string> next_vertex_line(std::istream& is) {
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] != '%') return line;
  }
  return std::nullopt;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) throw IoError("cannot open '" + path + "' for writing");
  return os;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  return is;
}

/// Every writer funnels through this after its last insertion: flush, then
/// check the stream state, so a full disk / failed write surfaces as a typed
/// IoError instead of a silently truncated file.  The fault point simulates
/// exactly that failure mode (ENOSPC / short write) for tests.
void finish_write(std::ostream& os, const char* what) {
  if (GAPART_FAULT_POINT(FaultSite::kFileWrite)) {
    os.setstate(std::ios::badbit);  // as a real short write would
  }
  os.flush();
  if (!os.good()) {
    throw IoError(std::string("write failed (") + what +
                  "): stream went bad — disk full or device error?");
  }
}

}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  const bool weighted = !g.unit_weights();
  os << g.num_vertices() << ' ' << g.num_edges();
  if (weighted) os << " 11";
  os << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    if (weighted) os << g.vertex_weight(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (weighted || i > 0) os << ' ';
      os << (nbrs[i] + 1);
      if (weighted) os << ' ' << wgts[i];
    }
    os << '\n';
  }
  finish_write(os, "graph");
}

void write_graph_file(const std::string& path, const Graph& g) {
  auto os = open_out(path);
  write_graph(os, g);
}

Graph read_graph(std::istream& is) {
  const std::string header = next_data_line(is);
  GAPART_REQUIRE(!header.empty(), "missing graph header line");
  std::istringstream hs(header);
  long long n = 0;
  long long m = 0;
  std::string fmt = "00";
  hs >> n >> m;
  GAPART_REQUIRE(!hs.fail(), "malformed graph header '", header, "'");
  hs >> fmt;
  const bool has_vwgt = fmt.size() >= 2 && fmt[fmt.size() - 2] == '1';
  const bool has_ewgt = !fmt.empty() && fmt.back() == '1';
  GAPART_REQUIRE(n >= 0 && m >= 0, "negative counts in header");
  GAPART_REQUIRE(n <= std::numeric_limits<VertexId>::max(), "header promises ",
                 n, " vertices, more than a vertex id can name");

  // Nothing is sized from the header: the rows are read first and the
  // builder is made after them, so memory follows the lines actually present
  // and a header promising more than the file holds fails as truncated
  // before any O(n) allocation.
  struct Edge {
    VertexId u;
    VertexId v;
    double w;
  };
  std::vector<double> vwgt;
  std::vector<Edge> edges;
  for (long long v = 0; v < n; ++v) {
    const auto maybe_line = next_vertex_line(is);
    if (!maybe_line.has_value()) {
      // EOF with vertex lines still owed: the file was truncated (a crashed
      // or disk-full writer).  Surface it; a graph silently missing rows
      // would corrupt every downstream consumer.
      throw IoError("truncated graph file: header promises " +
                    std::to_string(n) + " vertex lines, found " +
                    std::to_string(v));
    }
    std::istringstream ls(*maybe_line);
    if (has_vwgt) {
      double w = 1.0;
      ls >> w;
      GAPART_REQUIRE(!ls.fail(), "missing vertex weight on line ", v + 1);
      vwgt.push_back(w);
    }
    long long u = 0;
    while (ls >> u) {
      GAPART_REQUIRE(u >= 1 && u <= n, "neighbour ", u, " out of range");
      double w = 1.0;
      if (has_ewgt) {
        ls >> w;
        GAPART_REQUIRE(!ls.fail(), "missing edge weight on line ", v + 1);
      }
      // Each undirected edge appears on both endpoint lines; add from the
      // lower side only.
      if (u - 1 > v) {
        edges.push_back(
            {static_cast<VertexId>(v), static_cast<VertexId>(u - 1), w});
      }
    }
  }
  GraphBuilder b(static_cast<VertexId>(n));
  for (std::size_t v = 0; v < vwgt.size(); ++v) {
    b.set_vertex_weight(static_cast<VertexId>(v), vwgt[v]);
  }
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.w);
  std::vector<Edge>().swap(edges);  // freed before build() sizes the CSR
  Graph g = b.build();
  GAPART_REQUIRE(g.num_edges() == m, "header claims ", m, " edges, file has ",
                 g.num_edges());
  return g;
}

Graph read_graph_file(const std::string& path) {
  auto is = open_in(path);
  return read_graph(is);
}

void write_coordinates(std::ostream& os, const Graph& g) {
  GAPART_REQUIRE(g.has_coordinates(), "graph has no coordinates");
  for (const auto& p : g.coordinates()) {
    os << p.x << ' ' << p.y << '\n';
  }
  finish_write(os, "coordinates");
}

void write_coordinates_file(const std::string& path, const Graph& g) {
  auto os = open_out(path);
  write_coordinates(os, g);
}

Graph attach_coordinates(const Graph& g, std::istream& is) {
  std::vector<Point2> coords;
  coords.reserve(static_cast<std::size_t>(g.num_vertices()));
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    Point2 p;
    ls >> p.x >> p.y;
    GAPART_REQUIRE(!ls.fail(), "malformed coordinate line '", line, "'");
    coords.push_back(p);
  }
  GAPART_REQUIRE(static_cast<VertexId>(coords.size()) == g.num_vertices(),
                 "coordinate count ", coords.size(), " != |V| ",
                 g.num_vertices());

  // Rebuild with coordinates attached.
  GraphBuilder b(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    b.set_vertex_weight(v, g.vertex_weight(v));
    const auto nbrs = g.neighbors(v);
    const auto wgts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] > v) b.add_edge(v, nbrs[i], wgts[i]);
    }
  }
  b.set_coordinates(std::move(coords));
  return b.build();
}

void write_partition(std::ostream& os, const Assignment& a) {
  for (PartId p : a) os << p << '\n';
  finish_write(os, "partition");
}

void write_partition_file(const std::string& path, const Assignment& a) {
  auto os = open_out(path);
  write_partition(os, a);
}

Assignment read_partition(std::istream& is) {
  Assignment a;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '%') continue;
    std::istringstream ls(line);
    long long p = 0;
    ls >> p;
    GAPART_REQUIRE(!ls.fail(), "malformed partition line '", line, "'");
    GAPART_REQUIRE(p >= 0 && p <= std::numeric_limits<PartId>::max(),
                   "part id ", p, " out of range");
    a.push_back(static_cast<PartId>(p));
  }
  return a;
}

Assignment read_partition_file(const std::string& path) {
  auto is = open_in(path);
  return read_partition(is);
}

}  // namespace gapart
