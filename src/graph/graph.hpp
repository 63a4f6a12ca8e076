// Undirected weighted graph in compressed sparse row (CSR) form.
//
// This is the substrate every partitioner in gapart operates on.  The storage
// is deliberately flat and contiguous (Per.16/Per.19 of the C++ Core
// Guidelines: compact data structures, predictable access): one offset array,
// the neighbour array, and a parallel edge-weight array only when some edge
// weight is not 1.0.  A graph whose edge weights are all 1.0 (the paper's
// unit-weight meshes) stores no weight per edge: every row's weights are a
// view of one run of 1.0 as long as the largest row.  The form is canonical,
// so equal graphs are stored alike.  Graphs are immutable after
// construction; use GraphBuilder (or the mesh generators) to create them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace gapart {

class GraphBuilder;
class GraphSplice;

class Graph {
 public:
  Graph() = default;

  VertexId num_vertices() const { return static_cast<VertexId>(xadj_.size()) - 1; }

  /// Number of undirected edges (each stored twice internally).
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(adjncy_.size()) / 2;
  }

  std::int32_t degree(VertexId v) const {
    return xadj_[static_cast<std::size_t>(v) + 1] - xadj_[static_cast<std::size_t>(v)];
  }

  /// Summed degree of vertices [first, num_vertices()): rows are stored
  /// back to back, so O(1).
  std::int64_t degree_from(VertexId first) const {
    return xadj_.back() - xadj_[static_cast<std::size_t>(first)];
  }

  /// Neighbours of v, sorted ascending, no duplicates, no self-loops.
  std::span<const VertexId> neighbors(VertexId v) const {
    const auto begin = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {adjncy_.data() + begin, end - begin};
  }

  /// Edge weights parallel to neighbors(v).  When every edge weight is 1.0
  /// the graph stores none, and each row's span views the same run of 1.0.
  std::span<const double> edge_weights(VertexId v) const {
    const auto begin = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {ewgt_.empty() ? ones_.data() : ewgt_.data() + begin, end - begin};
  }

  double vertex_weight(VertexId v) const {
    return vwgt_[static_cast<std::size_t>(v)];
  }

  double total_vertex_weight() const { return total_vwgt_; }

  /// True when all vertex and edge weights equal 1 (the paper's setting).
  bool unit_weights() const { return unit_weights_; }

  bool has_edge(VertexId u, VertexId v) const;

  /// Weight of edge (u, v), or nullopt when absent.
  std::optional<double> edge_weight(VertexId u, VertexId v) const;

  bool has_coordinates() const { return !coords_.empty(); }
  const std::vector<Point2>& coordinates() const { return coords_; }
  Point2 coordinate(VertexId v) const { return coords_[static_cast<std::size_t>(v)]; }

  /// Sum of weights of edges incident to v (weighted degree).
  double weighted_degree(VertexId v) const;

  /// Human-readable one-line summary ("|V|=144 |E|=395 ...").
  std::string summary() const;

  /// True when rows [begin, end) of this graph and of `other` hold the same
  /// neighbour ids, edge weights and vertex weights.  Rows are stored back
  /// to back, so a block of rows with equal degrees is one comparison of
  /// contiguous ids (and weights, when either graph is weighted).  Requires
  /// 0 <= begin <= end <= both vertex counts.
  bool same_rows(const Graph& other, VertexId begin, VertexId end) const;

 private:
  // The only writers of the arrays: the builder, and the delta decoder's
  // splice (graph/delta_codec.cpp), which copies untouched rows verbatim.
  friend class GraphBuilder;
  friend class GraphSplice;

  /// Called by both writers once xadj_, adjncy_, ewgt_ and vwgt_ are
  /// final: drops an edge-weight array that holds only 1.0, lays the run
  /// of ones edge_weights() then serves (`max_degree` long), and derives
  /// the vertex-weight total and unit_weights().
  void seal(std::int32_t max_degree);

  std::vector<std::int32_t> xadj_ = {0};
  std::vector<VertexId> adjncy_;
  std::vector<double> ewgt_;  // empty exactly when every edge weight is 1.0
  std::vector<double> ones_;  // 1.0 x the largest degree, when ewgt_ is empty
  std::vector<double> vwgt_;
  std::vector<Point2> coords_;
  double total_vwgt_ = 0.0;
  bool unit_weights_ = true;
};

/// Accumulates edges / weights / coordinates and produces a canonical Graph:
/// symmetric, sorted adjacency, duplicate edges merged (weights summed),
/// self-loops dropped.
///
/// build() writes both directions of every edge into each row in the order
/// added.  A row that arrives strictly ascending (every edge added from its
/// lower end, in row order, as read_graph, make_grid, subgraph and a
/// client copying a graph's rows do) is already canonical: build() only
/// reads it, and moves it down in one block when earlier merges compacted
/// the output.  Any other row is sorted and merged in place.
class GraphBuilder {
 public:
  /// `num_vertices` fixes |V| up front; vertices are 0..n-1.
  explicit GraphBuilder(VertexId num_vertices);

  VertexId num_vertices() const { return num_vertices_; }

  /// Adds undirected edge {u, v} with weight w.  Duplicate additions are
  /// merged at build() time by summing weights in the order they were
  /// added.  Self-loops are ignored.
  void add_edge(VertexId u, VertexId v, double weight = 1.0) {
    // Inline: a unit edge between two distinct vertices in range while no
    // other weight has come (the unsigned compares also reject negative
    // ids; num_vertices_ >= 0).  Everything else, throws included, takes
    // the checked path.
    const auto n = static_cast<std::uint32_t>(num_vertices_);
    if (weight == 1.0 && wgts_.empty() && u != v &&
        static_cast<std::uint32_t>(u) < n &&
        static_cast<std::uint32_t>(v) < n) {
      edges_.push_back({u, v});
    } else {
      add_checked_edge(u, v, weight);
    }
  }

  void set_vertex_weight(VertexId v, double weight);
  void set_coordinate(VertexId v, Point2 p);
  void set_coordinates(std::vector<Point2> coords);

  /// Validates, canonicalizes and builds the immutable Graph.  The builder
  /// stays usable: more edges may be added and build() called again.
  /// Throws gapart::Error, before allocating, when the edges added (both
  /// directions, duplicates included) overflow the int32 offsets.
  Graph build();

 private:
  void add_checked_edge(VertexId u, VertexId v, double weight);

  VertexId num_vertices_;
  std::vector<std::array<VertexId, 2>> edges_;
  std::vector<double> wgts_;    // parallel to edges_ once a weight != 1.0 came
  std::vector<double> vwgt_;    // empty until a vertex weight is set
  std::vector<Point2> coords_;  // empty until a coordinate is set
};

}  // namespace gapart
