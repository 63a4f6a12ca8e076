// Undirected weighted graph in compressed sparse row (CSR) form.
//
// This is the substrate every partitioner in gapart operates on.  The storage
// is deliberately flat and contiguous (Per.16/Per.19 of the C++ Core
// Guidelines: compact data structures, predictable access): one offset array
// and parallel neighbour / edge-weight arrays.  Graphs are immutable after
// construction; use GraphBuilder (or the mesh generators) to create them.
#pragma once

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

  /// Neighbours of v, sorted ascending, no duplicates, no self-loops.
  std::span<const VertexId> neighbors(VertexId v) const {
    const auto begin = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {adjncy_.data() + begin, end - begin};
  }

  /// Edge weights parallel to neighbors(v).
  std::span<const double> edge_weights(VertexId v) const {
    const auto begin = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(xadj_[static_cast<std::size_t>(v) + 1]);
    return {ewgt_.data() + begin, end - begin};
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

 private:
  // The only writers of the arrays: the builder, and the delta decoder's
  // splice (graph/delta_codec.cpp), which copies untouched rows verbatim.
  friend class GraphBuilder;
  friend class GraphSplice;

  std::vector<std::int32_t> xadj_ = {0};
  std::vector<VertexId> adjncy_;
  std::vector<double> ewgt_;
  std::vector<double> vwgt_;
  std::vector<Point2> coords_;
  double total_vwgt_ = 0.0;
  bool unit_weights_ = true;
};

/// Accumulates edges / weights / coordinates and produces a canonical Graph:
/// symmetric, sorted adjacency, duplicate edges merged (weights summed),
/// self-loops dropped.
class GraphBuilder {
 public:
  /// `num_vertices` fixes |V| up front; vertices are 0..n-1.
  explicit GraphBuilder(VertexId num_vertices);

  VertexId num_vertices() const { return num_vertices_; }

  /// Adds undirected edge {u, v} with weight w.  Duplicate additions are
  /// merged at build() time by summing weights.  Self-loops are ignored.
  void add_edge(VertexId u, VertexId v, double weight = 1.0);

  void set_vertex_weight(VertexId v, double weight);
  void set_coordinate(VertexId v, Point2 p);
  void set_coordinates(std::vector<Point2> coords);

  /// Validates, canonicalizes and builds the immutable Graph.
  Graph build();

 private:
  struct RawEdge {
    VertexId u;
    VertexId v;
    double w;
  };

  VertexId num_vertices_;
  std::vector<RawEdge> edges_;
  std::vector<double> vwgt_;
  std::vector<Point2> coords_;
  bool has_coords_ = false;
};

}  // namespace gapart
