// Description of how a partitioned graph changed (paper §4.2: "adding some
// number of nodes in a local area chosen randomly").
//
// Incremental repartitioning wants its cost to scale with *what changed*,
// not with the graph.  A GraphDelta is the caller's statement of exactly
// that: the appended vertex range (the grown graph carries the surviving
// vertices as a prefix, as densify_mesh guarantees) plus the surviving
// vertices whose adjacency was perturbed by the update (re-triangulation
// rewires old vertices near the refinement region, not just the new ones).
// repair_seeds() turns a delta into the worklist a seeded hill climb starts
// from, making repair cost proportional to the damage.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gapart {

struct GraphDelta {
  /// Vertices [old_num_vertices, |grown|) are new; [0, old_num_vertices)
  /// survive with their identity (and usually their previous part).
  VertexId old_num_vertices = 0;
  /// Surviving vertices whose adjacency (neighbours or edge weights)
  /// changed.  Sorted ascending, deduplicated.
  std::vector<VertexId> touched_old;

  VertexId num_new(const Graph& grown) const {
    return grown.num_vertices() - old_num_vertices;
  }
  /// Total damage: new vertices plus perturbed survivors.
  VertexId damage(const Graph& grown) const {
    return num_new(grown) + static_cast<VertexId>(touched_old.size());
  }
};

/// Delta for pure growth, derivable from the grown graph alone: vertices
/// past `old_num_vertices` are new, and a surviving vertex counts as touched
/// iff it is adjacent to a new vertex.  Exact only for pure vertex-append
/// growth (every new edge has at least one new endpoint and weights are
/// unchanged); when old-old adjacency, edge weights, or vertex weights also
/// changed (e.g. a full re-triangulation) use diff_graphs instead.
GraphDelta appended_delta(const Graph& grown, VertexId old_num_vertices);

/// Exact delta between two snapshots: requires |old| <= |grown|; a surviving
/// vertex is touched iff its neighbour list, edge weights, or vertex weight
/// differ between the snapshots.  O(V + E): blocks of rows compare whole
/// (Graph::same_rows), and only a block that differs compares row by row.
GraphDelta diff_graphs(const Graph& old_graph, const Graph& grown);

/// The input check a delta passes before anything is mutated or logged:
/// throws gapart::Error unless `delta` (old_num_vertices = |prev|, touched
/// survivors sorted) accounts for every change visible at the seam between
/// recorded vertices — touched survivors and appended ones — and unrecorded
/// survivors.  It requires
///   * every edge in a recorded vertex's row of `grown` that leads to an
///     unrecorded survivor to exist in `prev`, with the same weight;
///   * every edge in a touched survivor's row of `prev` that leads to an
///     unrecorded survivor to still sit in that touched survivor's own row
///     of `grown`, with the same weight (decode_delta copies the unrecorded
///     survivor's row verbatim, so only the touched row can show it gone).
/// An inexact delta would otherwise corrupt the maintained metrics and log
/// a record the rebuilt graph disagrees with.  A change between two
/// undeclared survivors alone (an edge, or a vertex weight) stays invisible
/// to this O(damage * deg * log deg) check, which needs no O(V) scratch.
void check_delta_seam(const Graph& prev, const Graph& grown,
                      const GraphDelta& delta);

/// The repair worklist a delta implies: every new vertex, every touched
/// survivor, and their immediate neighbours (one hop — a rewired vertex can
/// strand a previously-settled neighbour on the wrong side).  Sorted
/// ascending, deduplicated; size O(damage * max_degree).
std::vector<VertexId> repair_seeds(const GraphDelta& delta,
                                   const Graph& grown);

}  // namespace gapart
