// Multilevel partitioning (Barnard & Simon style): contract the graph with
// heavy-edge matching, partition the coarsest level with RSB, then project
// back up, refining with KL at every level.
//
// This is the paper's reference [13] and the machinery its conclusion
// recommends ("a prior graph contraction step would allow these techniques
// to be applied to graphs much larger"); the GA front-end reuses the same
// hierarchy through core/contracted_ga.
#pragma once

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"

namespace gapart {

struct MultilevelOptions {
  /// Stop coarsening at roughly this many vertices (scaled by part count).
  VertexId coarse_vertices_per_part = 25;
  FitnessParams fitness;  ///< objective for the KL refinement
};

Assignment multilevel_partition(const Graph& g, PartId num_parts, Rng& rng,
                                const MultilevelOptions& options = {});

}  // namespace gapart
