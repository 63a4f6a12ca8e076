#include "core/graph_delta.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace gapart {

GraphDelta appended_delta(const Graph& grown, VertexId old_num_vertices) {
  GAPART_REQUIRE(old_num_vertices >= 0 &&
                     old_num_vertices <= grown.num_vertices(),
                 "old vertex count ", old_num_vertices,
                 " out of range for |V| = ", grown.num_vertices());
  GraphDelta delta;
  delta.old_num_vertices = old_num_vertices;
  for (VertexId v = 0; v < old_num_vertices; ++v) {
    // neighbors() is sorted ascending, so one back() check finds edges into
    // the appended range.
    const auto nbrs = grown.neighbors(v);
    if (!nbrs.empty() && nbrs.back() >= old_num_vertices) {
      delta.touched_old.push_back(v);
    }
  }
  return delta;
}

GraphDelta diff_graphs(const Graph& old_graph, const Graph& grown) {
  const VertexId n_old = old_graph.num_vertices();
  GAPART_REQUIRE(n_old <= grown.num_vertices(),
                 "old graph larger than grown graph");
  GraphDelta delta;
  delta.old_num_vertices = n_old;
  // Most blocks of rows are untouched and compare whole; only a block that
  // differs is compared row by row.
  constexpr VertexId kBlockRows = 4096;
  for (VertexId begin = 0, end = 0; begin < n_old; begin = end) {
    end = begin + std::min(kBlockRows, n_old - begin);
    if (old_graph.same_rows(grown, begin, end)) continue;
    for (VertexId v = begin; v < end; ++v) {
      if (!old_graph.same_rows(grown, v, v + 1)) delta.touched_old.push_back(v);
    }
  }
  return delta;
}

void check_delta_seam(const Graph& prev, const Graph& grown,
                      const GraphDelta& delta) {
  const VertexId n_old = delta.old_num_vertices;
  GAPART_REQUIRE(n_old == prev.num_vertices() &&
                     n_old <= grown.num_vertices(),
                 "delta spans ", n_old, " survivors of graphs with ",
                 prev.num_vertices(), " and ", grown.num_vertices(),
                 " vertices");
  const std::vector<VertexId>& touched = delta.touched_old;
  VertexId last = -1;
  for (const VertexId v : touched) {
    GAPART_REQUIRE(v > last && v < n_old, "touched list must be sorted ",
                   "survivors; got ", v);
    last = v;
  }
  if (n_old == 0) return;  // no survivor, so no seam (a whole graph)
  // Every edge (r, x) of r's row in `from` that leads to an unrecorded
  // survivor x must sit, with the same weight, in the row `find` reads.
  // Rows are sorted, so the survivors come first.
  const auto check_row = [&](const Graph& from, VertexId r, auto find) {
    const auto nbrs = from.neighbors(r);
    const auto wgts = from.edge_weights(r);
    for (std::size_t i = 0; i < nbrs.size() && nbrs[i] < n_old; ++i) {
      const VertexId x = nbrs[i];
      if (std::binary_search(touched.begin(), touched.end(), x)) continue;
      const auto w = find(x);
      GAPART_REQUIRE(w.has_value() && *w == wgts[i], "inexact delta: edge (",
                     r, ", ", x, ") changed, but survivor ", x,
                     " is not declared touched");
    }
  };
  for (const VertexId v : touched) {
    // A new edge must already sit in x's row, which did not change.
    check_row(grown, v, [&](VertexId x) { return prev.edge_weight(x, v); });
    // An old edge must still sit in v's own new row: decode_delta copies
    // x's row verbatim, so only v's row can show the edge dropped.
    check_row(prev, v, [&](VertexId x) { return grown.edge_weight(v, x); });
  }
  for (VertexId v = n_old; v < grown.num_vertices(); ++v) {
    check_row(grown, v, [&](VertexId x) { return prev.edge_weight(x, v); });
  }
}

std::vector<VertexId> repair_seeds(const GraphDelta& delta,
                                   const Graph& grown) {
  const VertexId n = grown.num_vertices();
  GAPART_REQUIRE(delta.old_num_vertices >= 0 && delta.old_num_vertices <= n,
                 "delta old vertex count ", delta.old_num_vertices,
                 " out of range for |V| = ", n);
  std::vector<VertexId> seeds;
  const auto add_with_neighbors = [&](VertexId v) {
    seeds.push_back(v);
    for (const VertexId u : grown.neighbors(v)) seeds.push_back(u);
  };
  for (VertexId v = delta.old_num_vertices; v < n; ++v) {
    add_with_neighbors(v);
  }
  for (const VertexId v : delta.touched_old) {
    GAPART_REQUIRE(v >= 0 && v < delta.old_num_vertices, "touched vertex ", v,
                   " is not a surviving vertex");
    add_with_neighbors(v);
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

}  // namespace gapart
